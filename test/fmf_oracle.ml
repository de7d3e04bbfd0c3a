(* The frozen oracle of the resolved FMF table's consumers: Hier.profile,
   Hier's gain and loss graphs and objectives (read as dense weights and
   an active set), and Cycle_loss.compute as they were when they looked
   fields up by name — Fmf.fields_at per sample and per line pair,
   string-keyed tables, and polymorphic [min] over every field pair and
   every CPU. Kept verbatim apart from the module wrappers;
   test_hier.ml and test_concurrency.ml check the production code
   against it bit for bit. Do not optimize this file; it is the
   reference. *)

module Field = Slo_layout.Field
module Topology = Slo_sim.Topology
module Machine = Slo_sim.Machine
module Fmf = Slo_concurrency.Fmf
module Code_concurrency = Slo_concurrency.Code_concurrency

module Hier = struct
  type profile = {
    p_fields : Field.t list;
    p_ncpus : int;
    p_reads : (string, int array) Hashtbl.t; (* field -> per-CPU read count *)
    p_writes : (string, int array) Hashtbl.t;
  }

  let profile ~fmf ~struct_name ~fields ~ncpus samples =
    if ncpus <= 0 then invalid_arg "Hier.profile: ncpus <= 0";
    if fields = [] then invalid_arg "Hier.profile: no fields";
    let reads = Hashtbl.create 16 and writes = Hashtbl.create 16 in
    List.iter
      (fun (f : Field.t) ->
        if Hashtbl.mem reads f.Field.name then
          invalid_arg
            (Printf.sprintf "Hier.profile: duplicate field %S" f.Field.name);
        Hashtbl.replace reads f.Field.name (Array.make ncpus 0);
        Hashtbl.replace writes f.Field.name (Array.make ncpus 0))
      fields;
    List.iter
      (fun (s : Machine.sample) ->
        let cpu = s.Machine.s_cpu in
        if cpu >= 0 && cpu < ncpus then
          List.iter
            (fun (fname, is_w) ->
              match Hashtbl.find_opt (if is_w then writes else reads) fname with
              | Some a -> a.(cpu) <- a.(cpu) + 1
              | None -> () (* a field of the struct we were not asked about *))
            (Fmf.fields_at fmf ~line:s.Machine.s_line ~struct_name))
      samples;
    { p_fields = fields; p_ncpus = ncpus; p_reads = reads; p_writes = writes }

  let ncpus p = p.p_ncpus
  let fields p = p.p_fields

  let count tbl name cpu =
    match Hashtbl.find_opt tbl name with
    | Some a when cpu >= 0 && cpu < Array.length a -> a.(cpu)
    | _ -> 0

  let read_count p ~field ~cpu = count p.p_reads field cpu
  let write_count p ~field ~cpu = count p.p_writes field cpu

  (* The level weight of one cross-CPU conflict: the cache-to-cache
     transfer cost between the two CPUs, normalized by the memory latency
     so a conflict "as bad as a miss" weighs 1.0. On the Superdome this
     spans 0.2 (same chip) to ~3.3 (cross crossbar); on a bus machine it is
     a flat 1.1 — which is exactly why the flat objective is a good match
     there and a bad one on the big machine. *)
  let penalty topo ~src ~dst =
    if src = dst then 0.0
    else
      float_of_int (Topology.transfer_latency topo ~src ~dst)
      /. float_of_int (Topology.memory_latency topo)

  let arr tbl name ncpus =
    match Hashtbl.find_opt tbl name with Some a -> a | None -> Array.make ncpus 0

  (* Per-field per-CPU total access counts (reads + writes). *)
  let access_arrays p =
    List.map
      (fun (f : Field.t) ->
        let r = arr p.p_reads f.Field.name p.p_ncpus
        and w = arr p.p_writes f.Field.name p.p_ncpus in
        (f.Field.name, r, w, Array.init p.p_ncpus (fun c -> r.(c) + w.(c))))
      p.p_fields

  let fold_pairs xs ~init ~f =
    let rec outer acc = function
      | [] -> acc
      | x :: rest -> outer (List.fold_left (fun acc y -> f acc x y) acc rest) rest
    in
    outer init xs

  let add_nodes p =
    List.fold_left
      (fun g (f : Field.t) -> Sgraph.add_node g f.Field.name)
      Sgraph.empty p.p_fields

  (* Colocation gain: for each CPU, paired accesses to both fields by that
     CPU — accesses that would have shared a line had the fields been
     colocated (the same [min] pairing estimate the CycleGain side of the
     classic FLG uses). Same-CPU only: gain is machine-independent. *)
  let gain_graph p =
    let accs = access_arrays p in
    fold_pairs accs ~init:(add_nodes p) ~f:(fun g (fn, _, _, fa) (gn, _, _, ga) ->
        let s = ref 0 in
        for c = 0 to p.p_ncpus - 1 do
          s := !s + min fa.(c) ga.(c)
        done;
        if !s > 0 then Sgraph.add_edge g fn gn (float_of_int !s) else g)

  (* Contention loss under a level-weight function: writes to one field by
     CPU [c1] paired against accesses to the other field by CPU [c2 <> c1]
     — the invalidation traffic colocation would create — each pair scaled
     by [pen ~src:c1 ~dst:c2]. With [pen = penalty topo] this is the
     hierarchy-aware loss; with a constant it degenerates to the classic
     distance-blind estimate. [pen] is tabulated once per call: the
     O(F²·P²) loop reads the same floats from a P×P array. *)
  let loss_graph ~pen p =
    let accs = access_arrays p in
    let ncpus = p.p_ncpus in
    let pens = Float.Array.make (ncpus * ncpus) 0.0 in
    for c1 = 0 to ncpus - 1 do
      for c2 = 0 to ncpus - 1 do
        Float.Array.set pens ((c1 * ncpus) + c2) (pen ~src:c1 ~dst:c2)
      done
    done;
    let pair_loss (wf : int array) (ga : int array) =
      let s = ref 0.0 in
      for c1 = 0 to ncpus - 1 do
        if wf.(c1) > 0 then
          for c2 = 0 to ncpus - 1 do
            if c2 <> c1 && ga.(c2) > 0 then
              s :=
                !s
                +. float_of_int (min wf.(c1) ga.(c2))
                   *. Float.Array.get pens ((c1 * ncpus) + c2)
          done
      done;
      !s
    in
    fold_pairs accs ~init:(add_nodes p)
      ~f:(fun g (fn, _, fw, fa) (gn, _, gw, ga) ->
        let l = pair_loss fw ga +. pair_loss gw fa in
        if l > 0.0 then Sgraph.add_edge g fn gn l else g)

  let graph ?(k1 = 1.0) ?(k2 = 1.0) ~pen p =
    let gain =
      Sgraph.map_weights (gain_graph p) ~f:(fun _ _ w -> k1 *. w)
    in
    let loss =
      Sgraph.map_weights (loss_graph ~pen p) ~f:(fun _ _ w -> -.(k2 *. w))
    in
    Sgraph.union gain loss

  (* The objectives as the search read them: the graph's dense weights
     and active set over [p_fields] (Flg_oracle's frozen dense view). *)
  let dense p g =
    let names = Array.of_list (List.map (fun (f : Field.t) -> f.Field.name) p.p_fields) in
    (Flg_oracle.dense_weights names g, Flg_oracle.active names g)

  let objective ?k1 ?k2 ~topo p =
    dense p (graph ?k1 ?k2 ~pen:(fun ~src ~dst -> penalty topo ~src ~dst) p)

  let flat_objective ?k1 ?k2 p = dense p (graph ?k1 ?k2 ~pen:(fun ~src:_ ~dst:_ -> 1.0) p)
end

module Cycle_loss = struct
  type t = {
    sname : string;
    tbl : (string * string, float) Hashtbl.t;  (* name-ordered field pairs *)
  }

  let key f1 f2 = if String.compare f1 f2 <= 0 then (f1, f2) else (f2, f1)

  let add t f1 f2 v =
    if v > 0.0 && not (String.equal f1 f2) then begin
      let k = key f1 f2 in
      let cur = try Hashtbl.find t.tbl k with Not_found -> 0.0 in
      Hashtbl.replace t.tbl k (cur +. v)
    end

  let compute ~cm ~fmf ~struct_name =
    let t = { sname = struct_name; tbl = Hashtbl.create 64 } in
    let contribute l1 l2 cc =
      let fs1 = Fmf.fields_at fmf ~line:l1 ~struct_name in
      let fs2 = Fmf.fields_at fmf ~line:l2 ~struct_name in
      List.iter
        (fun (f1, w1) ->
          List.iter
            (fun (f2, w2) ->
              (* False sharing needs a writer on at least one side. *)
              if w1 || w2 then add t f1 f2 (float_of_int cc))
            fs2)
        fs1
    in
    List.iter
      (fun ((l1, l2), cc) ->
        contribute l1 l2 cc;
        (* Both orientations for distinct lines — deliberately, to keep one
           scale across the map: one unit of loss per ordered (CPU pair,
           field orientation) conflict event. A coincident sample pair on a
           single line l gives CC(l,l) = 2 (ordered CPU pairs), and the one
           diagonal contribute walks both field orientations, so a same-line
           field pair collects 4 — its 4 ordered conflict events (both CPUs
           touch both fields). The same coincident pair across two lines
           gives CC(l1,l2) = 1 and only 2 ordered conflict events, so the
           cross-line pair needs both orientation calls to collect 2.
           Dropping the second call would halve cross-line loss relative to
           same-line loss and skew the FLG against separating fields that
           collide across lines; the scale is pinned by test_concurrency's
           "uniform conflict-event scale" test. *)
        if l1 <> l2 then contribute l2 l1 cc)
      (Code_concurrency.pairs cm);
    t

  let pairs t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
    |> List.sort (fun (k1, v1) (k2, v2) ->
           match compare v2 v1 with 0 -> compare k1 k2 | c -> c)
end
