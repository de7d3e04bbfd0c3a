module Sample = Slo_concurrency.Sample

type t = {
  base : Sample.t array;
  phases : int;
  interval : int;
  lo : int;
  span : int;
  lines : int array;  (* the distinct lines, ascending *)
  pos : (int, int) Hashtbl.t;  (* line -> its index in [lines] *)
}

let create ~interval ~phases base =
  if Array.length base = 0 then invalid_arg "Feed.create: no samples";
  let lo = Array.fold_left (fun a (s : Sample.t) -> min a s.Sample.itc) max_int base in
  let hi = Array.fold_left (fun a (s : Sample.t) -> max a s.Sample.itc) min_int base in
  let lines =
    Array.of_list
      (List.sort_uniq compare
         (Array.to_list (Array.map (fun (s : Sample.t) -> s.Sample.line) base)))
  in
  let pos = Hashtbl.create (Array.length lines) in
  Array.iteri (fun i l -> Hashtbl.replace pos l i) lines;
  { base; phases; interval; lo; span = (((hi - lo) / interval) + 2) * interval;
    lines; pos }

let lo t = t.lo
let span t = t.span
let window t = max 1 (2 * t.span / t.interval)

let phase t ~phase ~offset =
  let nl = Array.length t.lines in
  let rot = if 2 * phase >= t.phases then nl / 2 else 0 in
  let shift = (phase * t.span) + offset in
  Array.map
    (fun (s : Sample.t) ->
      let line =
        if rot = 0 then s.Sample.line
        else t.lines.((Hashtbl.find t.pos s.Sample.line + rot) mod nl)
      in
      { s with Sample.itc = s.Sample.itc + shift; line })
    t.base
