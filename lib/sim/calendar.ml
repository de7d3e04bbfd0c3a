(* Calendar queue over small int ids; see calendar.mli for the contract.

   The ring holds every queued id whose clock lies in [cur, cur + width).
   Slot [clock land mask] keeps a bitmap of its queued ids, [words] words
   of [per_word] ids each, and their count; bit [slot land 31] of
   [occupied.(slot lsr 5)] is set iff the count is positive. Because ring
   clocks span less than [width], each slot holds one clock, and scanning
   slots cyclically from [cur land mask] visits clocks in increasing
   order; within a slot the lowest id pops first. Later clocks wait in
   [overflow] and enter their slot's bitmap once the ring reaches them. *)

module Heap = Slo_util.Heap

let width = 1024
let mask = width - 1

(* Bitmap words hold 32 slots each: the largest power of two below
   OCaml's 63-bit int, so slot -> (word, bit) is a shift and a mask. *)
let nwords = width / 32

(* Ids per word of a slot's id bitmap: the coherence kernel's sharer-word
   width, so the lowest id of a word is found 32 bits at a time. *)
let per_word = 62

type t = {
  words : int;  (* id-bitmap words per slot *)
  ids : int array;  (* slot s's id bitmap: words [s * words, (s + 1) * words) *)
  count : int array;  (* per slot: ids queued in it *)
  occupied : int array;
  overflow : int Heap.t;  (* ids with clock >= cur + width *)
  mutable overflow_min : int;  (* least overflow clock; max_int when empty *)
  mutable cur : int;  (* clock of the last pop; no queued clock is below it *)
  mutable ring : int;  (* ids in the ring *)
}

let create ~ids =
  let words = max 1 ((ids + per_word - 1) / per_word) in
  {
    words;
    ids = Array.make (width * words) 0;
    count = Array.make width 0;
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

(* Lowest set bit of a non-zero id-bitmap word, one 32-bit half at a time. *)
let[@inline] lowest_id w =
  if w land 0xFFFFFFFF <> 0 then lowest_bit w else 32 + lowest_bit (w lsr 32)

let enqueue t id clock =
  let s = clock land mask in
  let q = id / per_word in
  let i = (s * t.words) + q in
  t.ids.(i) <- t.ids.(i) lor (1 lsl (id - (q * per_word)));
  let c = t.count.(s) in
  t.count.(s) <- c + 1;
  if c = 0 then begin
    let w = s lsr 5 in
    t.occupied.(w) <- t.occupied.(w) lor (1 lsl (s land 31))
  end;
  t.ring <- t.ring + 1

let push t id ~clock =
  if clock < t.cur then invalid_arg "Calendar.push: clock before the last pop";
  if clock - t.cur < width then enqueue t id clock
  else begin
    Heap.push t.overflow ~priority:clock id;
    if clock < t.overflow_min then t.overflow_min <- clock
  end

(* Move every overflow id the ring now covers into its slot's bitmap.
   Called whenever [cur] advances; the bitmap orders a slot's ids, so the
   heap's order among equal clocks does not matter. *)
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

(* Remove and return the lowest id of non-empty slot [s]. *)
let take t s =
  let base = s * t.words in
  let i = ref base in
  while t.ids.(!i) = 0 do
    incr i
  done;
  let bits = t.ids.(!i) in
  t.ids.(!i) <- bits land (bits - 1);
  let c = t.count.(s) - 1 in
  t.count.(s) <- c;
  if c = 0 then begin
    let w = s lsr 5 in
    t.occupied.(w) <- t.occupied.(w) land lnot (1 lsl (s land 31))
  end;
  t.ring <- t.ring - 1;
  ((!i - base) * per_word) + lowest_id bits

(* Same-clock fast path: ring clocks lie in [cur, cur + width), so the
   slot of [cur] holds only clock [cur], the least queued clock (no
   overflow clock is below [cur + width]); its lowest id is the next pop,
   and neither the slot scan nor a migration is needed. *)
let pop t =
  let s = t.cur land mask in
  if t.count.(s) > 0 then take t s
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
