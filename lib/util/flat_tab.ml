(* Linear probing over two int arrays; -1 marks an empty slot. Deletion is
   backward-shift (Knuth 6.4 algorithm R): later entries of the probe
   cluster slide back into the gap, so the table never accumulates
   tombstones and probe lengths track the live load factor only. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* 63 - log2 capacity: [home]'s top-bits shift *)
  mutable live : int;
  mutable probes : int;
}

let min_capacity = 8

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let rec log2 c = if c <= 1 then 0 else 1 + log2 (c lsr 1)

let create ?(capacity = 16) () =
  let cap = pow2 (max capacity min_capacity) min_capacity in
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1;
    shift = Sys.int_size - log2 cap; live = 0; probes = 0 }

let length t = t.live
let probe_steps t = t.probes

(* Fibonacci hashing: one multiply by 2^63/phi (odd, truncated to OCaml's
   63-bit int range), wrapped to the native int, then the {e top}
   log2(capacity) bits of the product as the slot. The low bits of a
   product depend only on the key's low bits, so masking them would send
   every packed key that differs only above bit 31 — the (cpu, line) and
   (line, line) keys of the interval tables and the CC map — to one home
   slot; the high bits mix every bit of the key. *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

(* Slot holding [k], or the empty slot where its probe ended. *)
let slot_of t k =
  let i = ref (home t k) in
  while t.keys.(!i) <> -1 && t.keys.(!i) <> k do
    t.probes <- t.probes + 1;
    i := (!i + 1) land t.mask
  done;
  !i

let mem t k = k >= 0 && t.keys.(slot_of t k) = k

let find t k ~default =
  if k < 0 then default
  else
    let i = slot_of t k in
    if t.keys.(i) = k then t.vals.(i) else default

(* Re-insert every binding into fresh arrays of [cap] slots. *)
let rehash t cap =
  let keys = t.keys and vals = t.vals in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.shift <- Sys.int_size - log2 cap;
  Array.iteri
    (fun i k ->
      if k <> -1 then begin
        let j = slot_of t k in
        t.keys.(j) <- k;
        t.vals.(j) <- vals.(i)
      end)
    keys

let grow t = rehash t ((t.mask + 1) * 2)

(* A table holds [n] bindings without growing while n * 4 <= 3 * capacity
   (the load bound [set] and [add] keep). *)
let reserve t n =
  let cap = pow2 (((4 * n) + 2) / 3) (t.mask + 1) in
  if cap > t.mask + 1 then rehash t cap

let set t k v =
  if k < 0 then invalid_arg "Flat_tab.set: negative key";
  let i = slot_of t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.live <- t.live + 1;
    (* keep load below 3/4 so probe clusters stay short *)
    if t.live * 4 > (t.mask + 1) * 3 then grow t
  end

(* Backward shift starting at occupied slot [i]: walk the cluster after
   [i]; any entry whose home slot lies cyclically at or before the gap
   moves into it. *)
let remove_at t i =
  t.live <- t.live - 1;
  let gap = ref i in
  let j = ref ((i + 1) land t.mask) in
  while t.keys.(!j) <> -1 do
    let h = home t t.keys.(!j) in
    (* distance from h to j, vs distance from gap to j: if the home is
       not strictly inside the (gap, j] arc, the entry may move back *)
    if (!j - h) land t.mask >= (!j - !gap) land t.mask then begin
      t.keys.(!gap) <- t.keys.(!j);
      t.vals.(!gap) <- t.vals.(!j);
      gap := !j
    end;
    j := (!j + 1) land t.mask
  done;
  t.keys.(!gap) <- -1

let remove t k =
  if k >= 0 then begin
    let i = slot_of t k in
    if t.keys.(i) = k then remove_at t i
  end

let add t k delta =
  if k < 0 then invalid_arg "Flat_tab.add: negative key";
  let i = slot_of t k in
  if t.keys.(i) = k then begin
    let v = t.vals.(i) + delta in
    if v = 0 then begin remove_at t i; 0 end
    else begin t.vals.(i) <- v; v end
  end
  else if delta = 0 then 0
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- delta;
    t.live <- t.live + 1;
    (* keep load below 3/4 so probe clusters stay short *)
    if t.live * 4 > (t.mask + 1) * 3 then grow t;
    delta
  end

let iter t f =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> -1 then f keys.(i) t.vals.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.live <- 0
