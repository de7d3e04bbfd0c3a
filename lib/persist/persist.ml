module Counts = Slo_profile.Counts
module Sample = Slo_concurrency.Sample
module Sample_store = Slo_concurrency.Sample_store

exception Parse_error of string * int
exception Bin_error of string

let fail line fmt = Format.kasprintf (fun m -> raise (Parse_error (m, line))) fmt
let bin_fail fmt = Format.kasprintf (fun m -> raise (Bin_error m)) fmt

(* Percent-encode anything that would break whitespace-separated fields. *)
let encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' | '%' ->
        Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Strict hex only: [int_of_string_opt ("0x" ^ ...)] would also accept
   OCaml literal quirks like underscores ("%5_", "%_1") and silently decode
   malformed input. *)
let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let decode line s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' then begin
        if i + 2 >= n then fail line "truncated %%-escape in %S" s;
        let hi = hex_digit s.[i + 1] and lo = hex_digit s.[i + 2] in
        if hi < 0 || lo < 0 then fail line "bad %%-escape in %S" s;
        Buffer.add_char buf (Char.chr ((hi * 16) + lo));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let int_field line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line "expected integer, found %S" s

(* Counts and identifiers must be non-negative; a negative count would
   silently bump the profile down instead of failing the load. *)
let nat_field line s =
  let v = int_field line s in
  if v < 0 then fail line "expected non-negative integer, found %S" s;
  v

(* Counts near [max_int] parse fine but wrap the moment two records
   accumulate (Counts.bump adds without saturating); cap them at 2^53 —
   far above any real profile, still exactly representable as a double
   for the JSON metrics export, and leaving 2^9 merges of headroom before
   an OCaml int could overflow. *)
let max_count = 1 lsl 53

let count_field line s =
  let v = nat_field line s in
  if v > max_count then
    fail line "count %S exceeds the supported maximum 2^53" s;
  v

(* cpu and line are identifiers bounded by Sample.max_id (2^31 - 1): the
   bound that lets a (cpu, line) pair pack into one int in the interval
   tables and that matches the 32-bit columns of the binary store. A
   larger value would truncate silently on text-to-binary conversion. *)
let id_field line s =
  let v = nat_field line s in
  if v > Sample.max_id then
    fail line "identifier %S exceeds the supported maximum 2^31-1" s;
  v

(* ------------------------------------------------------------------ *)
(* Atomic file writes.

   Every save used to open the destination with O_TRUNC and write in
   place — a crash (or any exception) mid-write left a truncated, corrupt
   file where a good one used to be, which is fatal for the serve
   daemon's snapshot/restore loop. All saves now write a fresh temp file
   in the {e same directory} (rename(2) is only atomic within a
   filesystem) and rename it over the destination once the body has
   completed: the destination at all times holds either the complete old
   contents or the complete new contents, never a prefix. On failure the
   temp file is removed and the original is untouched. *)

let temp_path path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let rec pick n =
    let p =
      Filename.concat dir
        (Printf.sprintf ".%s.tmp.%d.%d" base (Unix.getpid ()) n)
    in
    if Sys.file_exists p then pick (n + 1) else p
  in
  pick 0

let atomic_write ~path f =
  let tmp = temp_path path in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 tmp
  in
  (try
     f oc;
     close_out oc
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     Printexc.raise_with_backtrace e bt);
  Sys.rename tmp path

let atomic_write_fd ~path f =
  let tmp = temp_path path in
  let fd =
    Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o644
  in
  (try
     f fd;
     Unix.close fd
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     Printexc.raise_with_backtrace e bt);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Profile counts *)

let counts_header = "slo-profile 1"

let counts_to_string counts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (counts_header ^ "\n");
  let blocks =
    Counts.fold_blocks counts ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
    |> List.sort compare
  in
  List.iter
    (fun ((k : Counts.key), v) ->
      Buffer.add_string buf
        (Printf.sprintf "block %s %d %d\n" (encode k.Counts.proc) k.Counts.block v))
    blocks;
  let edges =
    Counts.fold_edges counts ~init:[] ~f:(fun acc ~proc ~src ~dst v ->
        (proc, src, dst, v) :: acc)
    |> List.sort compare
  in
  List.iter
    (fun (proc, src, dst, v) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %d %d %d\n" (encode proc) src dst v))
    edges;
  let fields =
    Counts.fold_fields counts ~init:[] ~f:(fun acc k v -> (k, v) :: acc)
    |> List.sort compare
  in
  List.iter
    (fun ((k : Counts.field_key), (rw : Counts.rw)) ->
      Buffer.add_string buf
        (Printf.sprintf "field %s %d %s %s %d %d\n" (encode k.Counts.fk_proc)
           k.Counts.fk_block (encode k.Counts.fk_struct)
           (encode k.Counts.fk_field) rw.Counts.reads rw.Counts.writes))
    fields;
  Buffer.contents buf

let iter_lines s f =
  List.iteri (fun i line -> f (i + 1) line) (String.split_on_char '\n' s)

let counts_of_string s =
  let counts = Counts.create () in
  let saw_header = ref false in
  iter_lines s (fun ln line ->
      let line = String.trim line in
      if line = "" then ()
      else if not !saw_header then
        if line = counts_header then saw_header := true
        else fail ln "expected header %S, found %S" counts_header line
      else
        match split_ws line with
        | [ "block"; proc; block; count ] ->
          let proc = decode ln proc in
          let block = int_field ln block in
          Counts.bump_block ~n:(count_field ln count) counts ~proc ~block
        | [ "edge"; proc; src; dst; count ] ->
          let proc = decode ln proc in
          let src = int_field ln src and dst = int_field ln dst in
          Counts.bump_edge ~n:(count_field ln count) counts ~proc ~src ~dst
        | [ "field"; proc; block; struct_name; field; reads; writes ] ->
          let proc = decode ln proc in
          let block = int_field ln block in
          let struct_name = decode ln struct_name in
          let field = decode ln field in
          Counts.bump_field ~n:(count_field ln reads) counts ~proc ~block
            ~struct_name ~field ~is_write:false;
          Counts.bump_field ~n:(count_field ln writes) counts ~proc ~block
            ~struct_name ~field ~is_write:true
        | tok :: _ -> fail ln "unknown record kind %S" tok
        | [] -> ());
  if not !saw_header then fail 1 "empty profile file";
  counts

(* ------------------------------------------------------------------ *)
(* Samples *)

let samples_header = "slo-samples 1"

(* The line parser: one raw line, its '\n' removed, with its 1-based
   number. It trims the line, takes the header, skips blank lines and
   splits a record on spaces; every sample-text error is raised here.
   Returns whether the header has been seen once the line is taken. The
   scanner below hands it every line that is not a canonical record, and
   the tests hold the scanner to it (For_tests). *)
let sample_line ~saw_header ln raw f =
  let line = String.trim raw in
  if line = "" then saw_header
  else if not saw_header then
    if line = samples_header then true
    else fail ln "expected header %S, found %S" samples_header line
  else begin
    (match split_ws line with
    | [ cpu; itc; l ] ->
      (* cpu and line are identifiers (bounded by Sample.max_id); itc is a
         signed timestamp — Sample.floor_div bins it correctly either
         way *)
      f { Sample.cpu = id_field ln cpu; itc = int_field ln itc;
          line = id_field ln l }
    | _ -> fail ln "expected '<cpu> <itc> <line>', found %S" line);
    true
  end

(* The byte scanner every sample-text reader shares: it hands each
   record's cpu, itc and line to its consumer as three ints, so a
   consumer that stores them (the store builder) allocates nothing per
   record. The input sits in [buf] from [pos] to [lim], and [eof] says
   that no byte follows [lim]. A file is read through a buffer of
   [chunk_size] bytes, refilled when a line runs past [lim]; a line
   longer than the buffer doubles it. A string is scanned in place: its
   [eof] holds from the start, so nothing ever refills — the one writer
   of [buf]. *)
let chunk_size = 65536

type scanner = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  mutable eof : bool;
  read : Bytes.t -> int -> int -> int;
  mutable ln : int;  (* lines taken *)
  mutable saw_header : bool;
  mutable num : int;  (* the value of the last [digits] run *)
}

exception Not_canonical
exception Short  (* the buffered bytes end inside the line *)

(* The byte at [i]; past the end of the input, a virtual '\n' ends the
   last line. Unchecked: [lim] never passes the buffer's length. *)
let peek sc i =
  if i < sc.lim then Bytes.unsafe_get sc.buf i
  else if sc.eof then '\n'
  else raise_notrace Short

(* The run of 1 to 18 decimal digits from [start]; [i] is its end so far.
   Puts its value in [num] and returns the index after it. Eighteen
   digits cannot overflow, and a 19th is left for the separator check
   to reject. *)
let rec digits sc start i acc =
  match peek sc i with
  | '0' .. '9' as c when i - start < 18 ->
    digits sc start (i + 1) ((acc * 10) + Char.code c - Char.code '0')
  | _ ->
    if i = start then raise_notrace Not_canonical;
    sc.num <- acc;
    i

let expect sc i c =
  if peek sc i <> c then raise_notrace Not_canonical;
  i + 1

(* The canonical record at [pos], "<digits> <-?digits> <digits>", an
   optional '\r', the end of the line, ids at most Sample.max_id: [pos]
   moves past its line, which is taken, and [f] gets its fields. Such a
   line means the same to the line parser. *)
let canonical sc f =
  let i = digits sc sc.pos sc.pos 0 in
  let cpu = sc.num in
  let i = expect sc i ' ' in
  let neg = peek sc i = '-' in
  let i = if neg then i + 1 else i in
  let i = digits sc i i 0 in
  let itc = if neg then -sc.num else sc.num in
  let i = expect sc i ' ' in
  let i = digits sc i i 0 in
  let line = sc.num in
  let i = if peek sc i = '\r' then i + 1 else i in
  let i = expect sc i '\n' in
  if cpu > Sample.max_id || line > Sample.max_id then
    raise_notrace Not_canonical;
  sc.pos <- Int.min i sc.lim;
  sc.ln <- sc.ln + 1;
  f cpu itc line

(* Keep the unread bytes, moved to the front, and read after them. *)
let refill sc =
  let keep = sc.lim - sc.pos in
  let buf =
    if keep < Bytes.length sc.buf then sc.buf else Bytes.create (2 * keep)
  in
  Bytes.blit sc.buf sc.pos buf 0 keep;
  sc.buf <- buf;
  sc.pos <- 0;
  sc.lim <- keep;
  let r = sc.read buf keep (Bytes.length buf - keep) in
  if r = 0 then sc.eof <- true else sc.lim <- keep + r

(* The index of the '\n' ending the line at [pos], or [lim] at the end
   of the input; [i] is where the search resumes, every byte before it
   searched already (so a long line is searched once across refills). *)
let rec line_end sc i =
  if i < sc.lim then
    if Bytes.get sc.buf i = '\n' then i else line_end sc (i + 1)
  else if sc.eof then i
  else begin
    let searched = i - sc.pos in
    refill sc;
    line_end sc (sc.pos + searched)
  end

(* The line at [pos], whole, through the line parser. *)
let fallback sc f =
  let e = line_end sc sc.pos in
  sc.ln <- sc.ln + 1;
  sc.saw_header <-
    sample_line ~saw_header:sc.saw_header sc.ln
      (Bytes.sub_string sc.buf sc.pos (e - sc.pos))
      (fun { Sample.cpu; itc; line } -> f cpu itc line);
  sc.pos <- Int.min (e + 1) sc.lim

let rec scan sc f =
  if sc.pos < sc.lim || not sc.eof then begin
    (match if sc.saw_header then canonical sc f else raise_notrace Not_canonical
     with
    | () -> ()
    | exception Short -> refill sc
    | exception Not_canonical -> fallback sc f);
    scan sc f
  end

let scan_samples ~buf ~eof read f =
  let sc =
    { buf; pos = 0; lim = (if eof then Bytes.length buf else 0); eof; read;
      ln = 0; saw_header = false; num = 0 }
  in
  scan sc f;
  if not sc.saw_header then fail 1 "empty samples file"

let samples_of_string s =
  let acc = ref [] in
  scan_samples ~buf:(Bytes.unsafe_of_string s) ~eof:true
    (fun _ _ _ -> 0)
    (fun cpu itc line -> acc := { Sample.cpu; itc; line } :: !acc);
  List.rev !acc

let scan_samples_file ~path f =
  In_channel.with_open_bin path (fun ic ->
      scan_samples ~buf:(Bytes.create chunk_size) ~eof:false
        (In_channel.input ic) f)

let iter_samples_file ~path f =
  scan_samples_file ~path (fun cpu itc line -> f { Sample.cpu; itc; line })

(* ------------------------------------------------------------------ *)
(* Binary columnar samples: "slo-samples-bin 1".

   Layout (all offsets in bytes):
     0..17   magic "slo-samples-bin 1\n"
     18      itc column element width  (8)
     19      cpu column element width  (4)
     20      line column element width (4)
     21      byte order of the columns: 1 = little-endian, 2 = big-endian
     22..29  sample count n, unsigned 64-bit little-endian
     30..31  zero padding (header is exactly 32 bytes)
     32..              itc column,  8n bytes
     32+8n..           cpu column,  4n bytes
     32+12n..32+16n    line column, 4n bytes

   The column order is not arbitrary: with the itc (int64) column first,
   every column starts at an offset divisible by its element width, so the
   whole file can be mapped and handed to Bigarray without a realignment
   copy. Columns are written in host byte order and the header records
   which; a mismatched reader gets a Bin_error instead of silently
   byte-swapped garbage. The file size must be exactly 32 + 16n. *)

let samples_bin_magic = "slo-samples-bin 1\n"
let samples_bin_header_size = 32
let host_endian_byte = if Sys.big_endian then '\002' else '\001'

let bin_header n =
  let h = Bytes.make samples_bin_header_size '\000' in
  Bytes.blit_string samples_bin_magic 0 h 0 (String.length samples_bin_magic);
  Bytes.set h 18 '\008';
  Bytes.set h 19 '\004';
  Bytes.set h 20 '\004';
  Bytes.set h 21 host_endian_byte;
  Bytes.set_int64_le h 22 (Int64.of_int n);
  h

(* A columnar file of [n >= 0] records of [width] bytes after a [header]
   must be exactly [header + width * n] bytes long ([size >= header]).
   [n] is compared with what the size holds before it is multiplied: the
   product wraps in 64 bits, and a wrapped size let a samples header
   claiming 2^60 samples pass as an empty file. *)
let check_size ~path ~size ~header ~width ~what n =
  let room =
    Int64.div (Int64.sub size (Int64.of_int header)) (Int64.of_int width)
  in
  if Int64.of_int n > room then
    bin_fail "%s: truncated columns — %Ld bytes hold %Ld %s, the header \
              claims %d"
      path size room what n;
  let expect =
    Int64.add (Int64.of_int header)
      (Int64.mul (Int64.of_int width) (Int64.of_int n))
  in
  if size > expect then
    bin_fail "%s: %Ld trailing bytes after the columns" path
      (Int64.sub size expect)

let map_i64 fd ~shared ~pos n : Sample_store.i64 =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos Bigarray.int64 Bigarray.c_layout shared [| n |])

let map_i32 fd ~shared ~pos n : Sample_store.i32 =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos Bigarray.int32 Bigarray.c_layout shared [| n |])

let save_samples_bin ~path store =
  let n = Sample_store.length store in
  atomic_write_fd ~path (fun fd ->
      let h = bin_header n in
      if Unix.write fd h 0 samples_bin_header_size <> samples_bin_header_size
      then bin_fail "%s: short header write" path;
      if n > 0 then begin
        let cpu, itc, line = Sample_store.columns store in
        (* Shared mappings past EOF grow the file; blitting the columns in
           is one memcpy each, no per-sample encode loop. *)
        let m_itc = map_i64 fd ~shared:true ~pos:32L n in
        let m_cpu =
          map_i32 fd ~shared:true ~pos:(Int64.of_int (32 + (8 * n))) n
        in
        let m_line =
          map_i32 fd ~shared:true ~pos:(Int64.of_int (32 + (12 * n))) n
        in
        Bigarray.Array1.blit itc m_itc;
        Bigarray.Array1.blit cpu m_cpu;
        Bigarray.Array1.blit line m_line
      end)

(* Both mapped formats start alike: open [path], check that it holds a
   header of [header] bytes, read it, and check the [magic] it starts
   with and the byte-order marker at offset 21. [f fd size h] then reads
   the rest; the descriptor is closed either way. *)
let with_mapped_file ~path ~magic ~header f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
      if size < Int64.of_int header then
        bin_fail "%s: truncated header (%Ld of %d bytes)" path size header;
      let h = Bytes.create header in
      let rec read_exactly off =
        if off < header then begin
          let r = Unix.read fd h off (header - off) in
          if r = 0 then bin_fail "%s: truncated header" path;
          read_exactly (off + r)
        end
      in
      read_exactly 0;
      let found = Bytes.sub_string h 0 (String.length magic) in
      if found <> magic then
        bin_fail "%s: bad magic — expected %S, found %S" path magic found;
      (match Bytes.get h 21 with
      | c when c = host_endian_byte -> ()
      | '\001' -> bin_fail "%s: little-endian columns on a big-endian host" path
      | '\002' -> bin_fail "%s: big-endian columns on a little-endian host" path
      | c -> bin_fail "%s: corrupt byte-order marker %d" path (Char.code c));
      f fd size h)

let load_samples_bin ~path =
  with_mapped_file ~path ~magic:samples_bin_magic
    ~header:samples_bin_header_size (fun fd size h ->
      let width at what expect =
        let w = Char.code (Bytes.get h at) in
        if w <> expect then
          bin_fail "%s: %s column width %d, this reader expects %d" path what w
            expect
      in
      width 18 "itc" 8;
      width 19 "cpu" 4;
      width 20 "line" 4;
      let count64 = Bytes.get_int64_le h 22 in
      if count64 < 0L || Int64.of_int (Int64.to_int count64) <> count64 then
        bin_fail "%s: unrepresentable sample count %Lu" path count64;
      let n = Int64.to_int count64 in
      check_size ~path ~size ~header:samples_bin_header_size ~width:16
        ~what:"samples" n;
      if n = 0 then
        Sample_store.of_columns ~validate:false
          ~cpu:(Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0)
          ~itc:(Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0)
          ~line:(Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0)
          ()
      else begin
        let itc = map_i64 fd ~shared:false ~pos:32L n in
        let cpu =
          map_i32 fd ~shared:false ~pos:(Int64.of_int (32 + (8 * n))) n
        in
        let line =
          map_i32 fd ~shared:false ~pos:(Int64.of_int (32 + (12 * n))) n
        in
        (* The one full pass over untrusted bytes: range-check everything
           here so the columnar CC path never has to. *)
        try Sample_store.of_columns ~validate:true ~cpu ~itc ~line ()
        with Invalid_argument m -> bin_fail "%s: %s" path m
      end)

let store_of_samples_file ~path =
  let b = Sample_store.builder () in
  scan_samples_file ~path (fun cpu itc line ->
      Sample_store.append b ~cpu ~itc ~line);
  Sample_store.build b

let save_store_text ~path store =
  atomic_write ~path (fun oc ->
      output_string oc (samples_header ^ "\n");
      let buf = Buffer.create (1 lsl 16) in
      let n = Sample_store.length store in
      for i = 0 to n - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%d %d %d\n" (Sample_store.cpu store i)
             (Sample_store.itc store i)
             (Sample_store.line store i));
        if Buffer.length buf >= 1 lsl 16 then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      done;
      Buffer.output_buffer oc buf)

let convert_samples_to_bin ~src ~dst =
  let store = store_of_samples_file ~path:src in
  save_samples_bin ~path:dst store;
  Sample_store.length store

let convert_samples_to_text ~src ~dst =
  let store = load_samples_bin ~path:src in
  save_store_text ~path:dst store;
  Sample_store.length store

(* ------------------------------------------------------------------ *)
(* Serve snapshots: "slo-serve-snapshot 1".

   The daemon's windowed state is its live intervals' tables —
   per-interval (cpu, line) -> count histograms — plus four scalars
   (interval length, window length, published layout version, newest
   interval index seen). Columnar layout, same machinery as the sample
   store (mmap per column, host byte order recorded in the header):

     0..20   magic "slo-serve-snapshot 1\n"
     21      byte order of the columns: 1 = little-endian, 2 = big-endian
     22..23  zero padding
     24..31  row count n, unsigned 64-bit little-endian
     32..39  interval length (i64 LE, >= 1)
     40..47  window length in intervals (i64 LE, >= 1)
     48..55  published layout version (i64 LE, >= 0)
     56..63  newest interval index (i64 LE, signed; any value when n = 0)
     64..            idx column,   8n bytes (i64)
     64+8n..         count column, 8n bytes (i64)
     64+16n..        cpu column,   4n bytes (i32)
     64+20n..64+24n  line column,  4n bytes (i32)

   Rows are the non-zero histogram entries in strictly ascending
   (idx, line, cpu) order — each table's [Sample.rows], tables by idx:
   the canonical form, so save . load . save is byte-identical (the bench
   serve gate's round-trip check). Every live idx must lie in the window
   (newest - window, newest], and the counts sum to at most 2^53. File
   size is exactly 64 + 24n. *)

let serve_snapshot_magic = "slo-serve-snapshot 1\n"
let serve_snapshot_header_size = 64

type serve_snapshot = {
  snap_interval : int;
  snap_window : int;
  snap_version : int;
  snap_newest : int;
  snap_tables : (int * Sample.interval_table) list;
}

(* Interval [idx] holds some itc: [Sample.floor_div itc interval] takes
   every value from that of [min_int] to that of [max_int], and no
   other. *)
let holds_itc ~interval idx =
  idx >= Sample.floor_div min_int interval
  && idx <= Sample.floor_div max_int interval

(* Validated before the file is opened, as the loader will check the
   file: indices strictly ascending, inside the window and holding some
   itc, and the count sum, which must not pass [max_count] — the bound
   that keeps the restored window's sample total exact. *)
let save_serve_snapshot ~path ~interval ~window ~version ~newest tables =
  if interval <= 0 then
    invalid_arg "Persist.save_serve_snapshot: interval <= 0";
  if window <= 0 then invalid_arg "Persist.save_serve_snapshot: window <= 0";
  if version < 0 then invalid_arg "Persist.save_serve_snapshot: version < 0";
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  if not (ascending tables) then
    invalid_arg
      "Persist.save_serve_snapshot: interval indices not strictly ascending";
  let tables = List.map (fun (idx, tbl) -> (idx, Sample.rows tbl)) tables in
  let n = ref 0 and sum = ref 0 in
  List.iter
    (fun (idx, (_, _, counts)) ->
      if idx > newest || Sample.below_watermark ~newest ~window idx then
        invalid_arg
          (Printf.sprintf
             "Persist.save_serve_snapshot: interval %d outside the window \
              of %d intervals ending at %d"
             idx window newest);
      if not (holds_itc ~interval idx) then
        invalid_arg
          (Printf.sprintf
             "Persist.save_serve_snapshot: interval %d holds no itc at \
              interval length %d"
             idx interval);
      Array.iter
        (fun count ->
          if count > max_count - !sum then
            bin_fail
              "%s: count sum at interval %d exceeds the supported maximum \
               2^53"
              path idx;
          sum := !sum + count)
        counts;
      n := !n + Array.length counts)
    tables;
  let n = !n in
  atomic_write_fd ~path (fun fd ->
      let h = Bytes.make serve_snapshot_header_size '\000' in
      Bytes.blit_string serve_snapshot_magic 0 h 0
        (String.length serve_snapshot_magic);
      Bytes.set h 21 host_endian_byte;
      Bytes.set_int64_le h 24 (Int64.of_int n);
      Bytes.set_int64_le h 32 (Int64.of_int interval);
      Bytes.set_int64_le h 40 (Int64.of_int window);
      Bytes.set_int64_le h 48 (Int64.of_int version);
      Bytes.set_int64_le h 56 (Int64.of_int newest);
      if Unix.write fd h 0 serve_snapshot_header_size
         <> serve_snapshot_header_size
      then bin_fail "%s: short header write" path;
      if n > 0 then begin
        let m_idx = map_i64 fd ~shared:true ~pos:64L n in
        let m_count =
          map_i64 fd ~shared:true ~pos:(Int64.of_int (64 + (8 * n))) n
        in
        let m_cpu =
          map_i32 fd ~shared:true ~pos:(Int64.of_int (64 + (16 * n))) n
        in
        let m_line =
          map_i32 fd ~shared:true ~pos:(Int64.of_int (64 + (20 * n))) n
        in
        let i = ref 0 in
        List.iter
          (fun (idx, (lines, cpus, counts)) ->
            Array.iteri
              (fun r line ->
                m_idx.{!i} <- Int64.of_int idx;
                m_count.{!i} <- Int64.of_int counts.(r);
                m_cpu.{!i} <- Int32.of_int cpus.(r);
                m_line.{!i} <- Int32.of_int line;
                incr i)
              lines)
          tables
      end)

let load_serve_snapshot ~path =
  with_mapped_file ~path ~magic:serve_snapshot_magic
    ~header:serve_snapshot_header_size (fun fd size h ->
      let i64_field off what =
        let v64 = Bytes.get_int64_le h off in
        if Int64.of_int (Int64.to_int v64) <> v64 then
          bin_fail "%s: unrepresentable %s %Ld" path what v64;
        Int64.to_int v64
      in
      let n = i64_field 24 "row count" in
      if n < 0 then bin_fail "%s: negative row count %d" path n;
      let interval = i64_field 32 "interval" in
      if interval <= 0 then bin_fail "%s: interval %d <= 0" path interval;
      let window = i64_field 40 "window" in
      if window <= 0 then bin_fail "%s: window %d <= 0" path window;
      let version = i64_field 48 "version" in
      if version < 0 then bin_fail "%s: negative version %d" path version;
      let newest = i64_field 56 "newest interval" in
      check_size ~path ~size ~header:serve_snapshot_header_size ~width:24
        ~what:"rows" n;
      let tables = ref [] in
      if n > 0 then begin
        let m_idx = map_i64 fd ~shared:false ~pos:64L n in
        let m_count =
          map_i64 fd ~shared:false ~pos:(Int64.of_int (64 + (8 * n))) n
        in
        let m_cpu =
          map_i32 fd ~shared:false ~pos:(Int64.of_int (64 + (16 * n))) n
        in
        let m_line =
          map_i32 fd ~shared:false ~pos:(Int64.of_int (64 + (20 * n))) n
        in
        let prev_idx = ref 0 and prev_line = ref 0 and prev_cpu = ref 0 in
        let sum = ref 0 in
        for i = 0 to n - 1 do
          let idx64 = m_idx.{i} in
          if Int64.of_int (Int64.to_int idx64) <> idx64 then
            bin_fail "%s: row %d: unrepresentable interval index %Ld" path i
              idx64;
          let idx = Int64.to_int idx64 in
          if idx > newest || Sample.below_watermark ~newest ~window idx then
            bin_fail
              "%s: row %d: interval %d outside the window of %d intervals \
               ending at %d"
              path i idx window newest;
          if not (holds_itc ~interval idx) then
            bin_fail "%s: row %d: interval index %d overflows itc" path i idx;
          let count64 = m_count.{i} in
          if count64 < 1L || count64 > Int64.of_int max_count then
            bin_fail "%s: row %d: count %Ld outside 1..2^53" path i count64;
          let count = Int64.to_int count64 in
          if count > max_count - !sum then
            bin_fail "%s: row %d: count sum exceeds the supported maximum 2^53"
              path i;
          sum := !sum + count;
          let cpu = Int32.to_int m_cpu.{i} and line = Int32.to_int m_line.{i} in
          if cpu < 0 then bin_fail "%s: row %d: negative cpu %d" path i cpu;
          if line < 0 then bin_fail "%s: row %d: negative line %d" path i line;
          if
            i > 0
            && compare (idx, line, cpu) (!prev_idx, !prev_line, !prev_cpu) <= 0
          then
            bin_fail "%s: row %d: rows not strictly (idx, line, cpu)-sorted"
              path i;
          let tbl =
            match !tables with
            | (last, tbl) :: _ when last = idx -> tbl
            | _ ->
              let tbl = Sample.empty_table () in
              tables := (idx, tbl) :: !tables;
              tbl
          in
          prev_idx := idx;
          prev_line := line;
          prev_cpu := cpu;
          Sample.count_n tbl ~cpu ~line ~count
        done
      end;
      { snap_interval = interval; snap_window = window;
        snap_version = version; snap_newest = newest;
        snap_tables = List.rev !tables })

(* ------------------------------------------------------------------ *)

let write_file path contents =
  atomic_write ~path (fun oc -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_counts ~path counts = write_file path (counts_to_string counts)
let load_counts ~path = counts_of_string (read_file path)
let save_samples ~path samples =
  save_store_text ~path (Sample_store.of_samples samples)

module For_tests = struct
  let samples_of_string s =
    let acc = ref [] and saw_header = ref false in
    List.iteri
      (fun i raw ->
        saw_header :=
          sample_line ~saw_header:!saw_header (i + 1) raw (fun smp ->
              acc := smp :: !acc))
      (String.split_on_char '\n' s);
    if not !saw_header then fail 1 "empty samples file";
    List.rev !acc
end
