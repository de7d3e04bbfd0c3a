(* SplitMix64 (Steele, Lea, Flood 2014). Chosen over [Random] because the
   stream must be identical across OCaml versions and because [split] gives
   cheap independent streams for per-thread workload generators. *)

(* The state lives in an 8-byte buffer rather than a mutable [int64]
   field, whose every update would box a fresh [Int64]: with [mix64] and
   [next_int64] inlined, a draw through [int] allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (next_int64 t)

let derive ~seed ~stream =
  if stream < 0 then invalid_arg "Prng.derive: stream must be non-negative";
  (* Jump straight to a stream-specific state: offset the seed by
     [stream + 1] gammas and scramble. Unlike [split], the result depends
     only on [(seed, stream)], never on how many streams were derived
     before — the property the parallel pool's determinism contract needs. *)
  let s =
    Int64.add (Int64.of_int seed)
      (Int64.mul golden_gamma (Int64.of_int (stream + 1)))
  in
  of_state (mix64 s)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62 so
     the bias is unobservable for simulation purposes. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Prng.geometric: p not in (0,1]";
  let rec count n = if float t 1.0 < p then n else count (n + 1) in
  count 0
