(* `e2e.exe compare PARENT_DIR CHANGE_DIR`: judge two sets of result
   files by the benchmark's own rules. For every (end-to-end metric,
   workload) pair it prints each side's median and quartiles, the share
   of seed-matched pairs the change wins, and a verdict against the
   metric's bound in BENCHMARK.json:

   - better: the change wins at least 9 in 10 pairs and the medians
     differ by more than the parent's interquartile distance;
   - unresolved: the parent's own spread is wider than the bound, unless
     every change run beats (better) or loses to (worse) every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - unchanged: otherwise.

   It also flags every (workload, seed) whose digest differs and any rise
   in the failed-check fraction, and exits 1 on any of these or on a
   worse verdict. *)

module Json = Slo_obs.Json

type run = {
  workload : string;
  seed : int;
  digest : string;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

type metric = { name : string; higher_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let read_json path =
  match Json.of_string (Work.read_file path) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e
  | exception Sys_error e -> fail "%s" e

let num = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

let get path j k =
  match Json.member j k with Some v -> v | None -> fail "%s: missing %S" path k

let load_runs dir =
  let files =
    try Sys.readdir dir with Sys_error e -> fail "%s" e
  in
  Array.sort compare files;
  Array.to_list files
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         let j = read_json path in
         let int k = match get path j k with Json.Int i -> i | _ -> fail "%s: %S not an int" path k in
         let str k = match get path j k with Json.Str s -> s | _ -> fail "%s: %S not a string" path k in
         if get path j "trace" <> Json.Bool false then None
         else
           let metrics =
             match get path j "metrics" with
             | Json.Obj kvs ->
               List.filter_map
                 (fun (k, v) ->
                   Option.bind (Json.member v "value") num |> Option.map (fun x -> (k, x)))
                 kvs
             | _ -> fail "%s: metrics is not an object" path
           in
           Some
             { workload = str "workload"; seed = int "seed"; digest = str "digest";
               attempted = int "attempted"; failed = int "failed"; metrics })

let load_metrics path =
  let j = read_json path in
  match get path j "end_to_end" with
  | Json.List ms ->
    List.map
      (fun m ->
        let s k = match get path m k with Json.Str s -> s | _ -> fail "%s: bad %S" path k in
        let bound = match Option.bind (Json.member m "bound") num with Some b -> b | None -> fail "%s: bad bound" path in
        { name = s "name"; higher_better = s "better" = "higher"; bound })
      ms
  | _ -> fail "%s: end_to_end is not a list" path

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the default "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let verdict m ~parent ~change ~pairs =
  let better x y = if m.higher_better then x > y else x < y in
  let p1, pm, p3 = quartiles parent and _, cm, _ = quartiles change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let win = if pairs = [] then 0.0 else float_of_int wins /. float_of_int (List.length pairs) in
  let spread = (p3 -. p1) /. Float.abs pm in
  let worse_by = (if m.higher_better then pm -. cm else cm -. pm) /. Float.abs pm in
  let all_cmp f = List.for_all (fun c -> List.for_all (fun p -> f c p) parent) change in
  let v =
    if win >= 0.9 && better cm pm && Float.abs (cm -. pm) > p3 -. p1 then "better"
    else if spread > m.bound then
      if all_cmp better then "better"
      else if all_cmp (fun c p -> better p c) then "worse"
      else "unresolved"
    else if worse_by > m.bound then "worse"
    else "unchanged"
  in
  (v, win)

(* Run from the root of the repository, where BENCHMARK.json is. *)
let run parent_dir change_dir =
  let metrics = load_metrics "BENCHMARK.json" in
  let parent = load_runs parent_dir and change = load_runs change_dir in
  if parent = [] || change = [] then fail "no untraced result files in %s or %s" parent_dir change_dir;
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  let bad = ref 0 in
  Printf.printf "%-16s %-12s %-30s %-30s %5s  %s\n" "workload" "metric"
    "parent q1 / median / q3" "change q1 / median / q3" "win" "verdict";
  List.iter
    (fun w ->
      let ps = List.filter (fun r -> r.workload = w) parent
      and cs = List.filter (fun r -> r.workload = w) change in
      List.iter
        (fun m ->
          let vals rs = List.filter_map (fun r -> List.assoc_opt m.name r.metrics) rs in
          match (vals ps, vals cs) with
          | [], _ | _, [] -> Printf.printf "%-16s %-12s missing on one side\n" w m.name
          | pv, cv ->
            let pairs =
              List.filter_map
                (fun p ->
                  match List.find_opt (fun c -> c.seed = p.seed) cs with
                  | Some c -> (
                    match (List.assoc_opt m.name p.metrics, List.assoc_opt m.name c.metrics) with
                    | Some a, Some b -> Some (a, b)
                    | _ -> None)
                  | None -> None)
                ps
            in
            let v, win = verdict m ~parent:pv ~change:cv ~pairs in
            if v = "worse" then incr bad;
            let qs xs =
              let a, b, c = quartiles xs in
              Printf.sprintf "%.4g / %.4g / %.4g" a b c
            in
            Printf.printf "%-16s %-12s %-30s %-30s %5.2f  %s\n" w m.name (qs pv) (qs cv)
              win v)
        metrics;
      List.iter
        (fun p ->
          match List.find_opt (fun c -> c.seed = p.seed) cs with
          | Some c when c.digest <> p.digest ->
            incr bad;
            Printf.printf "%-16s seed %d: DIGEST DIFFERS (%s vs %s)\n" w p.seed p.digest c.digest
          | _ -> ())
        ps;
      let frac rs =
        let a = List.fold_left (fun s r -> s + r.attempted) 0 rs
        and f = List.fold_left (fun s r -> s + r.failed) 0 rs in
        if a = 0 then 0.0 else float_of_int f /. float_of_int a
      in
      if frac cs > frac ps then begin
        incr bad;
        Printf.printf "%-16s FAILED-CHECK FRACTION ROSE (%.4f -> %.4f)\n" w (frac ps) (frac cs)
      end)
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d regression(s)\n" !bad;
    exit 1
  end
  else print_endline "no regression"
