(* In-memory span recorder for the traced benchmark run.

   A span is one call into a library layer made from the benchmark's own
   code: name ("layer.what"), start, end, parent span and iteration id,
   plus the words allocated while it was open. Spans are kept in a list
   and written out only when the run ends, so recording costs two clock
   reads and two [Gc.quick_stat] calls per span. With recording off,
   [span] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span; -1 at the top level *)
  iter : int;
  start : float;
  stop : float;
  alloc_w : float;  (** words allocated while open (all domains, as seen by Gc) *)
}

let enabled = ref false
let iteration = ref 0
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = alloc_words () in
    let start = Slo_obs.Obs.now () in
    let finish () =
      let stop = Slo_obs.Obs.now () in
      let alloc_w = alloc_words () -. a0 in
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; iter = !iteration; start; stop; alloc_w }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* Rename the span that finished last, for calls whose kind is known only
   once they return (a serve batch that turned out to re-search). *)
let rename_last name =
  match !recorded with
  | s :: rest when !enabled -> recorded := { s with name } :: rest
  | _ -> ()

(* Self time of a span: its duration minus the part covered by its
   children. Spans are recorded from one thread and strictly nested, so
   the children's intervals are disjoint and lie inside the parent's. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.stop -. s.start and a = s.alloc_w in
        let d0, a0 =
          Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.parent)
        in
        Hashtbl.replace child s.parent (d0 +. d, a0 +. a))
    spans;
  List.map
    (fun s ->
      let cd, ca = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. cd, s.alloc_w -. ca))
    spans

(* Chrome trace-event format ("X" complete events, microseconds), which
   chrome://tracing, Perfetto and speedscope open directly. *)
let chrome_json spans =
  let module Json = Slo_obs.Json in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (layer s.name));
        ("ph", Json.Str "X");
        ("ts", Json.Float ((s.start -. t0) *. 1e6));
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("iter", Json.Int s.iter);
              ("alloc_words", Json.Float s.alloc_w);
            ] );
      ]
  in
  let by_start = List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) spans in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map ev by_start));
      ("displayTimeUnit", Json.Str "ms");
    ]
