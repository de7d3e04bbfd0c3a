(* Calendar queue over small int ids; see calendar.mli for the contract.

   The ring holds every queued id whose clock lies in [cur, cur + width):
   slot [clock land mask] is a FIFO list threaded through [next], and bit
   [slot land 31] of [occupied.(slot lsr 5)] is set iff the slot is
   non-empty. Because ring clocks span less than [width], each slot holds
   one clock, and scanning slots cyclically from [cur land mask] visits
   clocks in increasing order. Later clocks wait in [overflow]. *)

module Heap = Slo_util.Heap

let width = 1024
let mask = width - 1

(* Bitmap words hold 32 slots each: the largest power of two below
   OCaml's 63-bit int, so slot -> (word, bit) is a shift and a mask. *)
let nwords = width / 32

type t = {
  head : int array;  (* per slot: first id, -1 when empty *)
  tail : int array;  (* per slot: last id *)
  next : int array;  (* per id: the id after it in its slot, -1 at the end *)
  occupied : int array;
  overflow : int Heap.t;  (* ids with clock >= cur + width *)
  mutable overflow_min : int;  (* least overflow clock; max_int when empty *)
  mutable cur : int;  (* clock of the last pop; no queued clock is below it *)
  mutable ring : int;  (* ids in the ring *)
}

let create ~ids =
  {
    head = Array.make width (-1);
    tail = Array.make width (-1);
    next = Array.make ids (-1);
    occupied = Array.make nwords 0;
    overflow = Heap.create ();
    overflow_min = max_int;
    cur = 0;
    ring = 0;
  }

(* Index of the lowest set bit of a non-zero 32-bit word, by de Bruijn
   multiplication: the isolated bit times the sequence 0x077CB531 puts a
   distinct 5-bit pattern in the top five of the low 32 bits. *)
let debruijn =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let lowest_bit w = debruijn.((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let enqueue t id clock =
  let s = clock land mask in
  t.next.(id) <- -1;
  (if t.head.(s) < 0 then begin
     t.head.(s) <- id;
     let w = s lsr 5 in
     t.occupied.(w) <- t.occupied.(w) lor (1 lsl (s land 31))
   end
   else t.next.(t.tail.(s)) <- id);
  t.tail.(s) <- id;
  t.ring <- t.ring + 1

let push t id ~clock =
  if clock < t.cur then invalid_arg "Calendar.push: clock before the last pop";
  if clock - t.cur < width then enqueue t id clock
  else begin
    Heap.push t.overflow ~priority:clock id;
    if clock < t.overflow_min then t.overflow_min <- clock
  end

(* Move every overflow id the ring now covers into it, in (clock, push)
   order. Called whenever [cur] advances, so an overflow id always enters
   its slot before any id pushed straight into the ring at the same clock
   — which it preceded. *)
let migrate t =
  let limit = t.cur + width in
  while t.overflow_min < limit do
    (match Heap.pop t.overflow with
    | Some (clock, id) -> enqueue t id clock
    | None -> assert false);
    t.overflow_min <-
      (match Heap.peek t.overflow with Some (clock, _) -> clock | None -> max_int)
  done

(* First non-empty slot at or cyclically after [s0]; the ring is not
   empty. Wrapping back to [s0]'s own word finds only slots below [s0],
   the ring's latest clocks. *)
let next_slot t s0 =
  let w0 = s0 lsr 5 in
  let here = t.occupied.(w0) land (-1 lsl (s0 land 31)) in
  if here <> 0 then (w0 lsl 5) + lowest_bit here
  else begin
    let w = ref ((w0 + 1) land (nwords - 1)) in
    while t.occupied.(!w) = 0 do
      w := (!w + 1) land (nwords - 1)
    done;
    (!w lsl 5) + lowest_bit t.occupied.(!w)
  end

let take t s =
  let id = t.head.(s) in
  let nx = t.next.(id) in
  t.head.(s) <- nx;
  if nx < 0 then begin
    let w = s lsr 5 in
    t.occupied.(w) <- t.occupied.(w) land lnot (1 lsl (s land 31))
  end;
  t.ring <- t.ring - 1;
  id

(* Same-clock fast path: ring clocks lie in [cur, cur + width), so the
   slot of [cur] holds only clock [cur], the least queued clock (no
   overflow clock is below [cur + width]); its head is the next pop, and
   neither the bitmap scan nor a migration is needed. *)
let pop t =
  let s = t.cur land mask in
  if t.head.(s) >= 0 then take t s
  else begin
    if t.ring = 0 && t.overflow_min < max_int then begin
      t.cur <- t.overflow_min;
      migrate t
    end;
    if t.ring = 0 then -1
    else begin
      let s = next_slot t (t.cur land mask) in
      let clock = t.cur + ((s - t.cur) land mask) in
      if clock <> t.cur then begin
        t.cur <- clock;
        if t.overflow_min < clock + width then migrate t
      end;
      take t s
    end
  end
