module Sample = Slo_concurrency.Sample
module Cc = Slo_concurrency.Code_concurrency
module Obs = Slo_obs.Obs
module Pipeline = Slo_core.Pipeline
module Optimizer = Slo_search.Optimizer
module Persist = Slo_persist.Persist

type config = {
  interval : int;
  window : int;
  decay : float;
  drift_threshold : float;
  min_samples : int;
  queue_capacity : int;
  params : Pipeline.params;
  program : Slo_ir.Ast.program;
  counts : Slo_profile.Counts.t;
  struct_name : string;
  selector : Optimizer.selector;
  seed : int;
  restarts : int;
}

type publication = {
  version : int;
  best : Optimizer.result;
  greedy_score : float;
  cc_pairs : ((int * int) * int) list;
  pub_drift : float;
  window_samples : int;
  window_intervals : int;
}

type t = {
  cfg : config;
  (* Ingest side: a bounded batch queue under its own lock, so clients
     never contend with a running re-search. *)
  q_lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : Sample.t array Queue.t;
  mutable stopping : bool;
  mutable daemon : unit Domain.t option;
  (* State side: window + publications under a second lock; exactly one
     processor (the daemon domain, or the caller of [drain]) holds it at
     a time. *)
  w_lock : Mutex.t;
  window : Window.t;
  mutable version : int;
  mutable last_view : Cc.view option;  (* drift side of the last publication *)
  mutable pubs : publication list;  (* newest first *)
  mutable dropped_batches : int;
  (* high-water marks already pushed to the monotone obs counters *)
  mutable seen_retired : int;
  mutable seen_late : int;
}

let check_config cfg =
  if cfg.interval <= 0 then invalid_arg "Serve: interval <= 0";
  if cfg.window <= 0 then invalid_arg "Serve: window <= 0";
  if not (cfg.decay > 0.0 && cfg.decay <= 1.0) then
    invalid_arg "Serve: decay outside (0, 1]";
  (* Written so that NaN fails too: [drift > nan] is always false, and a
     NaN threshold would silently stop every re-search after the first. *)
  if not (cfg.drift_threshold >= 0.0) then
    invalid_arg "Serve: drift_threshold negative or NaN";
  if cfg.min_samples < 1 then invalid_arg "Serve: min_samples < 1";
  if cfg.queue_capacity < 1 then invalid_arg "Serve: queue_capacity < 1"

let make cfg window version =
  { cfg; q_lock = Mutex.create (); not_empty = Condition.create ();
    not_full = Condition.create (); queue = Queue.create ();
    stopping = false; daemon = None; w_lock = Mutex.create (); window;
    version; last_view = None; pubs = []; dropped_batches = 0;
    seen_retired = 0; seen_late = 0 }

let create cfg =
  check_config cfg;
  make cfg
    (Window.create ~decay:cfg.decay ~interval:cfg.interval ~window:cfg.window
       ())
    0

let config t = t.cfg
let window t = t.window
let version t = t.version
let publications t = List.rev t.pubs
let current t = match t.pubs with [] -> None | p :: _ -> Some p
let dropped_batches t = t.dropped_batches

let queue_depth t =
  Mutex.lock t.q_lock;
  let d = Queue.length t.queue in
  Mutex.unlock t.q_lock;
  d

(* ------------------------------------------------------------------ *)
(* Ingest: admission control and backpressure *)

(* Validated on the caller's side, before the queue lock: a bad batch
   raises to its submitter and is neither enqueued nor counted, so the
   daemon only ever sees feedable samples. *)
let check_batch batch =
  Array.iteri
    (fun i (s : Sample.t) ->
      try Sample.check_ids ~cpu:s.Sample.cpu ~line:s.Sample.line
      with Invalid_argument m ->
        invalid_arg (Printf.sprintf "Serve.submit: batch.(%d): %s" i m))
    batch

let submit t batch =
  check_batch batch;
  Mutex.lock t.q_lock;
  let r =
    if t.stopping || Queue.length t.queue >= t.cfg.queue_capacity then begin
      t.dropped_batches <- t.dropped_batches + 1;
      `Dropped
    end
    else begin
      Queue.add batch t.queue;
      Condition.signal t.not_empty;
      `Accepted
    end
  in
  let depth = Queue.length t.queue in
  Mutex.unlock t.q_lock;
  Obs.set_gauge "serve.queue_depth" (float_of_int depth);
  (match r with
  | `Dropped -> Obs.incr "serve.dropped_batches"
  | `Accepted -> Obs.incr "serve.batches");
  r

let submit_wait t batch =
  check_batch batch;
  Mutex.lock t.q_lock;
  while (not t.stopping) && Queue.length t.queue >= t.cfg.queue_capacity do
    Condition.wait t.not_full t.q_lock
  done;
  let accepted = not t.stopping in
  if accepted then begin
    Queue.add batch t.queue;
    Condition.signal t.not_empty
  end
  else t.dropped_batches <- t.dropped_batches + 1;
  let depth = Queue.length t.queue in
  Mutex.unlock t.q_lock;
  Obs.set_gauge "serve.queue_depth" (float_of_int depth);
  if accepted then Obs.incr "serve.batches"
  else Obs.incr "serve.dropped_batches";
  accepted

(* ------------------------------------------------------------------ *)
(* Processing: window maintenance + drift-triggered re-search.
   Callers hold [w_lock]. *)

let publish t view ~drift =
  let pub =
    Obs.time "serve.research_s" (fun () ->
        let cc = Window.weighted_cc t.window in
        let flg =
          Pipeline.analyze ~params:t.cfg.params ~cm:cc ~program:t.cfg.program
            ~counts:t.cfg.counts ~samples:[] ~struct_name:t.cfg.struct_name ()
        in
        let pf =
          Pipeline.search ~params:t.cfg.params ~seed:t.cfg.seed
            ~restarts:t.cfg.restarts ~selector:t.cfg.selector flg
        in
        { version = t.version + 1; best = pf.Optimizer.best;
          greedy_score = pf.Optimizer.greedy.Optimizer.score;
          cc_pairs = Cc.pairs cc; pub_drift = drift;
          window_samples = Window.live_samples t.window;
          window_intervals = Window.live_intervals t.window })
  in
  t.version <- pub.version;
  t.last_view <- Some view;
  t.pubs <- pub :: t.pubs;
  Obs.incr "serve.researches";
  Obs.incr "serve.publications";
  Obs.set_gauge "serve.version" (float_of_int pub.version);
  pub

(* The window's current view and its drift from the last publication
   (from the empty map before the first). *)
let current_drift t =
  let view = Window.weighted_view t.window in
  let last =
    match t.last_view with Some v -> v | None -> Cc.view (Cc.create ())
  in
  (view, Cc.drift_views last view)

let maybe_publish t =
  if Window.live_samples t.window >= t.cfg.min_samples then begin
    let view, drift = current_drift t in
    Obs.set_gauge "serve.drift" drift;
    if t.pubs = [] || drift > t.cfg.drift_threshold then
      ignore (publish t view ~drift)
  end

let process_batch t batch =
  Obs.time "serve.ingest_s" (fun () ->
      Array.iter
        (fun (s : Sample.t) ->
          ignore
            (Window.feed t.window ~cpu:s.Sample.cpu ~itc:s.Sample.itc
               ~line:s.Sample.line))
        batch);
  Obs.incr ~by:(Array.length batch) "serve.samples";
  let retired = Window.retired t.window and late = Window.late t.window in
  if retired > t.seen_retired then begin
    Obs.incr ~by:(retired - t.seen_retired) "serve.retired_intervals";
    t.seen_retired <- retired
  end;
  if late > t.seen_late then begin
    Obs.incr ~by:(late - t.seen_late) "serve.late_samples";
    t.seen_late <- late
  end;
  Obs.set_gauge "serve.window_samples"
    (float_of_int (Window.live_samples t.window));
  Obs.set_gauge "serve.window_intervals"
    (float_of_int (Window.live_intervals t.window));
  maybe_publish t

let pop_batch t ~wait =
  Mutex.lock t.q_lock;
  if wait then
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.q_lock
    done;
  let b = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Condition.broadcast t.not_full;
  Mutex.unlock t.q_lock;
  b

let process_locked t batch =
  Mutex.lock t.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.w_lock)
    (fun () -> process_batch t batch)

let rec drain t =
  match pop_batch t ~wait:false with
  | None -> ()
  | Some batch ->
    process_locked t batch;
    drain t

let daemon_loop t =
  let rec go () =
    match pop_batch t ~wait:true with
    | None -> ()  (* stopping and the queue is fully drained *)
    | Some batch ->
      process_locked t batch;
      go ()
  in
  go ()

let run t =
  Mutex.lock t.q_lock;
  let already = t.daemon <> None in
  if not already then t.daemon <- Some (Domain.spawn (fun () -> daemon_loop t));
  Mutex.unlock t.q_lock;
  if already then invalid_arg "Serve.run: daemon already running"

let stop t =
  Mutex.lock t.q_lock;
  t.stopping <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  let d = t.daemon in
  t.daemon <- None;
  Mutex.unlock t.q_lock;
  match d with Some d -> Domain.join d | None -> ()

let research t =
  Mutex.lock t.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.w_lock)
    (fun () ->
      let view, drift = current_drift t in
      publish t view ~drift)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore *)

let snapshot t ~path =
  Mutex.lock t.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.w_lock)
    (fun () ->
      let w = t.window in
      let newest = match Window.newest w with Some n -> n | None -> 0 in
      Persist.save_serve_snapshot ~path ~window:(Window.window_length w)
        ~version:t.version ~newest (Window.master w);
      Obs.incr "serve.snapshots")

let restore cfg ~path =
  check_config cfg;
  let snap = Persist.load_serve_snapshot ~path in
  if Sample.interval snap.Persist.snap_binner <> cfg.interval then
    invalid_arg
      (Printf.sprintf "Serve.restore: snapshot interval %d, config wants %d"
         (Sample.interval snap.Persist.snap_binner)
         cfg.interval);
  if snap.Persist.snap_window <> cfg.window then
    invalid_arg
      (Printf.sprintf "Serve.restore: snapshot window %d, config wants %d"
         snap.Persist.snap_window cfg.window);
  let w =
    Window.restore ~decay:cfg.decay ~window:snap.Persist.snap_window
      ~newest:snap.Persist.snap_newest snap.Persist.snap_binner
  in
  make cfg w snap.Persist.snap_version
