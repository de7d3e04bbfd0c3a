type hist = {
  mutable values : float list;  (* reversed arrival order *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type registry = {
  m : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    m = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 32;
  }

let default = create ()

(* Monotonic clamp over the wall clock: one global last-value cell shared by
   every registry, so spans never come out negative even if the system
   clock steps backwards between [now] calls on different domains. *)
let clock_m = Mutex.create ()
let clock_last = ref 0.0

let now () =
  Mutex.protect clock_m (fun () ->
      let t = Unix.gettimeofday () in
      if t > !clock_last then clock_last := t;
      !clock_last)

let with_lock r f = Mutex.protect r.m f

let incr ?(r = default) ?(by = 1) name =
  if by < 0 then invalid_arg "Obs.incr: negative increment";
  with_lock r (fun () ->
      match Hashtbl.find_opt r.counters name with
      | Some c -> c := !c + by
      | None -> Hashtbl.replace r.counters name (ref by))

let set_gauge ?(r = default) name v =
  with_lock r (fun () ->
      match Hashtbl.find_opt r.gauges name with
      | Some g -> g := v
      | None -> Hashtbl.replace r.gauges name (ref v))

let observe ?(r = default) name v =
  with_lock r (fun () ->
      let h =
        match Hashtbl.find_opt r.hists name with
        | Some h -> h
        | None ->
          let h =
            { values = []; h_count = 0; h_sum = 0.0; h_min = infinity;
              h_max = neg_infinity }
          in
          Hashtbl.replace r.hists name h;
          h
      in
      h.values <- v :: h.values;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v)

let time ?r name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> observe ?r name (now () -. t0)) f

type summary = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Nearest-rank percentile over the sorted sample array. *)
let summarize h =
  let arr = Array.of_list h.values in
  Array.sort compare arr;
  let n = Array.length arr in
  let pct p =
    if n = 0 then 0.0
    else arr.(min (n - 1) (int_of_float (Float.of_int n *. p)))
  in
  {
    count = h.h_count;
    sum = h.h_sum;
    min_v = (if n = 0 then 0.0 else h.h_min);
    max_v = (if n = 0 then 0.0 else h.h_max);
    mean = (if n = 0 then 0.0 else h.h_sum /. float_of_int n);
    p50 = pct 0.50;
    p90 = pct 0.90;
    p99 = pct 0.99;
  }

let counter ?(r = default) name =
  with_lock r (fun () ->
      match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0)

let gauge ?(r = default) name =
  with_lock r (fun () ->
      Option.map ( ! ) (Hashtbl.find_opt r.gauges name))

let histogram ?(r = default) name =
  with_lock r (fun () ->
      Option.map summarize (Hashtbl.find_opt r.hists name))

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters ?(r = default) () =
  with_lock r (fun () -> sorted_bindings r.counters ( ! ))

let gauges ?(r = default) () =
  with_lock r (fun () -> sorted_bindings r.gauges ( ! ))

let histograms ?(r = default) () =
  with_lock r (fun () -> sorted_bindings r.hists summarize)

let reset ?(r = default) () =
  with_lock r (fun () ->
      Hashtbl.reset r.counters;
      Hashtbl.reset r.gauges;
      Hashtbl.reset r.hists)

let to_json ?(r = default) () =
  let summary_json s =
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("sum", Json.Float s.sum);
        ("min", Json.Float s.min_v);
        ("max", Json.Float s.max_v);
        ("mean", Json.Float s.mean);
        ("p50", Json.Float s.p50);
        ("p90", Json.Float s.p90);
        ("p99", Json.Float s.p99);
      ]
  in
  let cs = counters ~r () and gs = gauges ~r () and hs = histograms ~r () in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) gs));
      ( "histograms",
        Json.Obj (List.map (fun (k, s) -> (k, summary_json s)) hs) );
    ]
