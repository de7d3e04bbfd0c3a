(* Loser tree over small int ids; see calendar.mli for the contract.

   An id's key is one int, [(clock lsl shift) lor id], so int order is
   (clock, id) order. The tree has [leaves = 1 lsl shift] leaves, leaf
   [leaves + id] standing for id [id]; node [k]'s children are [2k] and
   [2k + 1]. Each internal node [1 .. leaves - 1] keeps the loser (the
   greater key) of the match played there, and [tree.(0)] the winner,
   the least key of all. A retired id, and a leaf past the last id, is
   [max_int], which every queued key is below. *)

type t = { shift : int; tree : int array }

let retired = max_int

let create ~ids =
  let shift = ref 0 in
  while 1 lsl !shift < ids do
    incr shift
  done;
  let leaves = 1 lsl !shift in
  let tree = Array.make leaves retired in
  (* Play every match bottom-up with each id at clock 0, its key the id. *)
  let rec play k =
    if k >= leaves then if k - leaves < ids then k - leaves else retired
    else begin
      let a = play (2 * k) and b = play ((2 * k) + 1) in
      tree.(k) <- Int.max a b;
      Int.min a b
    end
  in
  tree.(0) <- play 1;
  { shift = !shift; tree }

let top t =
  let w = t.tree.(0) in
  if w = retired then -1 else w land ((1 lsl t.shift) - 1)

(* Replay the winner's matches from its leaf's parent to the root with
   its new key: the lesser key at each node goes on up, the greater
   stays there as its loser. Which one wins depends on the clocks and
   mispredicts about half the time, so the min and max are taken
   without a branch: [m] is [loser - key] when that is negative, else 0.
   Keys lie in [0, max_int], so the difference cannot overflow. *)
let rec climb (tree : int array) k key =
  if k = 0 then tree.(0) <- key
  else begin
    let loser = tree.(k) in
    let d = loser - key in
    let m = d land (d asr (Sys.int_size - 1)) in
    tree.(k) <- loser - m;
    climb tree (k lsr 1) (key + m)
  end

(* Re-key the winner with [bits lor id]: a clock shifted above the id
   bits, or [retired], which has every bit set already. *)
let replay t name bits =
  let id = top t in
  if id < 0 then invalid_arg (name ^ ": every id is retired");
  climb t.tree ((Array.length t.tree + id) lsr 1) (bits lor id)

let requeue t ~clock =
  let limit = max_int lsr t.shift in
  if clock < 0 || clock >= limit then
    invalid_arg (Printf.sprintf "Calendar.requeue: clock %d outside [0, %d)" clock limit);
  replay t "Calendar.requeue" (clock lsl t.shift)

let retire t = replay t "Calendar.retire" retired
