open Bigarray

type i32 = (int32, int32_elt, c_layout) Array1.t
type i64 = (int64, int64_elt, c_layout) Array1.t

type t = { s_cpu : i32; s_itc : i64; s_line : i32; s_len : int }

let length t = t.s_len

(* Accessors return plain ints; the Int32/Int64 boxes live only for the
   duration of the read and die in the minor heap. cpu/line fit an OCaml
   int by the Sample.max_id invariant checked at construction; itc is
   checked to fit 63 bits there too, so to_int never truncates here. *)
let cpu t i = Int32.to_int (Array1.get t.s_cpu i)
let itc t i = Int64.to_int (Array1.get t.s_itc i)
let line t i = Int32.to_int (Array1.get t.s_line i)

let get t i = { Sample.cpu = cpu t i; itc = itc t i; line = line t i }

(* The column types are annotated so that every read below is the
   specialised, unboxed Bigarray access: through the generic path each
   element is boxed (9 words per sample). *)
let check_columns ~(cpu : i32) ~(itc : i64) ~(line : i32) =
  let n = Array1.dim cpu in
  if Array1.dim itc <> n || Array1.dim line <> n then
    invalid_arg "Sample_store.of_columns: column lengths differ";
  (* Compare as native ints: int32/int64 [<]/[<>] would go through the
     polymorphic compare on boxed values, turning this O(n) scan — the
     only per-element work on the mmap load path — into the bottleneck. *)
  for i = 0 to n - 1 do
    let c = Int32.to_int (Array1.unsafe_get cpu i)
    and l = Int32.to_int (Array1.unsafe_get line i) in
    if c < 0 || c > Sample.max_id then
      invalid_arg
        (Printf.sprintf "Sample_store: cpu out of range at index %d: %d" i c);
    if l < 0 || l > Sample.max_id then
      invalid_arg
        (Printf.sprintf "Sample_store: line out of range at index %d: %d" i l);
    let t = Array1.unsafe_get itc i in
    if not (Int64.equal (Int64.of_int (Int64.to_int t)) t) then
      invalid_arg
        (Printf.sprintf
           "Sample_store: itc does not fit a 63-bit int at index %d: %Ld" i t)
  done

let of_columns ?(validate = true) ~cpu ~itc ~line () =
  if validate then check_columns ~cpu ~itc ~line
  else if Array1.dim itc <> Array1.dim cpu || Array1.dim line <> Array1.dim cpu
  then invalid_arg "Sample_store.of_columns: column lengths differ";
  { s_cpu = cpu; s_itc = itc; s_line = line; s_len = Array1.dim cpu }

let columns t = (t.s_cpu, t.s_itc, t.s_line)

let iter t f =
  for i = 0 to t.s_len - 1 do
    f (get t i)
  done

let to_samples t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
  go (t.s_len - 1) []

(* ------------------------------------------------------------------ *)
(* Builder: amortized-doubling append, trimmed on [build]. *)

type builder = {
  mutable b_cpu : i32;
  mutable b_itc : i64;
  mutable b_line : i32;
  mutable b_len : int;
}

let builder ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  {
    b_cpu = Array1.create int32 c_layout capacity;
    b_itc = Array1.create int64 c_layout capacity;
    b_line = Array1.create int32 c_layout capacity;
    b_len = 0;
  }

let built b = b.b_len

let grow_to (type a b) (arr : (a, b, c_layout) Array1.t) cap : (a, b, c_layout) Array1.t =
  let bigger = Array1.create (Array1.kind arr) c_layout cap in
  Array1.blit arr (Array1.sub bigger 0 (Array1.dim arr));
  bigger

let append b ~cpu ~itc ~line =
  Sample.check_ids ~cpu ~line;
  if b.b_len = Array1.dim b.b_cpu then begin
    let cap = 2 * b.b_len in
    b.b_cpu <- grow_to b.b_cpu cap;
    b.b_itc <- grow_to b.b_itc cap;
    b.b_line <- grow_to b.b_line cap
  end;
  let i = b.b_len in
  Array1.unsafe_set b.b_cpu i (Int32.of_int cpu);
  Array1.unsafe_set b.b_itc i (Int64.of_int itc);
  Array1.unsafe_set b.b_line i (Int32.of_int line);
  b.b_len <- i + 1

let append_sample b (s : Sample.t) =
  append b ~cpu:s.Sample.cpu ~itc:s.Sample.itc ~line:s.Sample.line

let build b =
  (* Sub-slices share the builder's storage: building is O(1) and the
     builder stays usable for further appends until a growth reallocates. *)
  of_columns ~validate:false
    ~cpu:(Array1.sub b.b_cpu 0 b.b_len)
    ~itc:(Array1.sub b.b_itc 0 b.b_len)
    ~line:(Array1.sub b.b_line 0 b.b_len)
    ()

let of_iter iter =
  let b = builder () in
  iter (append_sample b);
  build b

let of_samples samples =
  let b = builder ~capacity:(max 1 (List.length samples)) () in
  List.iter (append_sample b) samples;
  build b
