(* Hierarchy-aware layout objective (ROADMAP item 4; the paper's §5
   machine-dependence result). The classic FLG weighs every cross-CPU
   conflict the same; on a NUMA machine like the Superdome the cost of a
   conflict depends on where the two CPUs sit — a same-chip transfer is
   cheaper than a memory fetch while a cross-crossbar one costs ~3x
   memory. This module rebuilds the gain/loss edges from a per-CPU access
   profile and scales each cross-CPU loss edge by the topological distance
   of the conflicting pair, so the optimizer separates fields contended
   across cells while still colocating fields contended only within a
   chip, where the transfer is cheap. *)

module Field = Slo_layout.Field
module Topology = Slo_sim.Topology
module Machine = Slo_sim.Machine
module Fmf = Slo_concurrency.Fmf
module Names = Slo_util.Names

type profile = {
  p_fields : Field.t list;
  p_ncpus : int;
  p_names : Names.t; (* [p_fields]' names: the index space of the counts *)
  p_reads : int array array; (* field index -> per-CPU read count *)
  p_writes : int array array;
}

let profile ~fmf ~struct_name ~fields ~ncpus samples =
  if ncpus <= 0 then invalid_arg "Hier.profile: ncpus <= 0";
  if fields = [] then invalid_arg "Hier.profile: no fields";
  let names = Array.of_list (List.map (fun (f : Field.t) -> f.Field.name) fields) in
  let names =
    match Names.make names with
    | Ok names -> names
    | Error f -> invalid_arg (Printf.sprintf "Hier.profile: duplicate field %S" f)
  in
  let counts () = Array.init (Names.length names) (fun _ -> Array.make ncpus 0) in
  let reads = counts () and writes = counts () in
  let table = Fmf.table fmf ~struct_name ~fields:names in
  List.iter
    (fun (s : Machine.sample) ->
      let cpu = s.Machine.s_cpu in
      if cpu >= 0 && cpu < ncpus then begin
        let e = Fmf.Table.at table ~line:s.Machine.s_line in
        for k = 0 to Fmf.Table.length e - 1 do
          let i = Fmf.Table.field e k in
          let a = if Fmf.Table.is_write e k then writes.(i) else reads.(i) in
          a.(cpu) <- a.(cpu) + 1
        done
      end)
    samples;
  { p_fields = fields; p_ncpus = ncpus; p_names = names; p_reads = reads;
    p_writes = writes }

let ncpus p = p.p_ncpus
let fields p = p.p_fields

let count p counts name cpu =
  match Names.find_opt p.p_names name with
  | Some i when cpu >= 0 && cpu < p.p_ncpus -> counts.(i).(cpu)
  | _ -> 0

let read_count p ~field ~cpu = count p p.p_reads field cpu
let write_count p ~field ~cpu = count p p.p_writes field cpu

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

(* A field some CPU accessed, the only kind that can carry an edge: its
   per-CPU access (read + write) and write counts, and the CPUs where
   each is non-zero, ascending. *)
type active = {
  pos : int;  (* field index *)
  acc : int array;
  wr : int array;
  acc_cpus : int array;
  wr_cpus : int array;
}

let nonzero a =
  let cpus = ref [] in
  for c = Array.length a - 1 downto 0 do
    if a.(c) > 0 then cpus := c :: !cpus
  done;
  Array.of_list !cpus

(* The accessed fields, in [p_fields] order. *)
let actives p =
  List.mapi
    (fun i _ ->
      let r = p.p_reads.(i) and wr = p.p_writes.(i) in
      let acc = Array.init p.p_ncpus (fun c -> r.(c) + wr.(c)) in
      { pos = i; acc; wr; acc_cpus = nonzero acc; wr_cpus = nonzero wr })
    p.p_fields
  |> List.filter (fun a -> a.acc_cpus <> [||])

let fold_pairs xs ~init ~f =
  let rec outer acc = function
    | [] -> acc
    | x :: rest -> outer (List.fold_left (fun acc y -> f acc x y) acc rest) rest
  in
  outer init xs

(* Colocation gain of two accessed fields: for each CPU, paired
   accesses to both fields by that CPU — accesses that would have shared
   a line had the fields been colocated (the same [min] pairing estimate
   the CycleGain side of the classic FLG uses). Same-CPU only: gain is
   machine-independent. A CPU that did not access [f] adds min = 0, so
   only [f]'s CPUs are summed. *)
let pair_gain f h =
  let s = ref 0 in
  for k = 0 to Array.length f.acc_cpus - 1 do
    let c = f.acc_cpus.(k) in
    s := !s + Int.min f.acc.(c) h.acc.(c)
  done;
  !s

(* Contention loss under a level-weight function: writes to one field by
   CPU [c1] paired against accesses to the other field by CPU [c2 <> c1]
   — the invalidation traffic colocation would create — each pair scaled
   by [pen ~src:c1 ~dst:c2]. With [pen = penalty topo] this is the
   hierarchy-aware loss; with a constant it degenerates to the classic
   distance-blind estimate. [pen] is tabulated once per call: the
   O(F²·P²) loop reads the same floats from a P×P array. Only CPUs with
   non-zero counts are visited, in ascending order: the skipped terms
   are the zero-count ones, and the rest are added in full-scan order,
   so every weight is the full scan's to the bit. *)
let pair_loss ~pen p =
  let ncpus = p.p_ncpus in
  let pens = Float.Array.make (ncpus * ncpus) 0.0 in
  for c1 = 0 to ncpus - 1 do
    for c2 = 0 to ncpus - 1 do
      Float.Array.set pens ((c1 * ncpus) + c2) (pen ~src:c1 ~dst:c2)
    done
  done;
  (* [w]'s writes against [a]'s accesses. *)
  let one_way w a =
    let s = ref 0.0 in
    for i = 0 to Array.length w.wr_cpus - 1 do
      let c1 = w.wr_cpus.(i) in
      for j = 0 to Array.length a.acc_cpus - 1 do
        let c2 = a.acc_cpus.(j) in
        if c2 <> c1 then
          s :=
            !s
            +. float_of_int (Int.min w.wr.(c1) a.acc.(c2))
               *. Float.Array.get pens ((c1 * ncpus) + c2)
      done
    done;
    !s
  in
  fun f h -> one_way f h +. one_way h f

(* The objective over [p_fields]: a pair has an edge when its gain or its
   loss is non-zero, and then weighs [k1·gain − k2·loss] with an absent
   side read as 0 (so [k1·gain] alone keeps a -0). *)
let objective_of ?(k1 = 1.0) ?(k2 = 1.0) ~pen ~struct_name ~line_size p =
  if not (Float.is_finite k1 && Float.is_finite k2) then
    invalid_arg "Hier: k1 and k2 must be finite";
  let n = List.length p.p_fields in
  let w = Float.Array.make (n * n) 0.0 and linked = Array.make n false in
  let loss = pair_loss ~pen p in
  fold_pairs (actives p) ~init:() ~f:(fun () f h ->
      let g = pair_gain f h and l = loss f h in
      if g > 0 || l > 0.0 then begin
        let gain = if g > 0 then k1 *. float_of_int g else 0.0
        and loss = if l > 0.0 then k2 *. l else 0.0 in
        Float.Array.set w ((f.pos * n) + h.pos) (gain -. loss);
        Float.Array.set w ((h.pos * n) + f.pos) (gain -. loss);
        linked.(f.pos) <- true;
        linked.(h.pos) <- true
      end);
  let active = List.filter (Array.get linked) (List.init n Fun.id) in
  Objective.make ~struct_name ~fields:p.p_fields ~line_size ~weights:w
    ~active:(Array.of_list active)

let objective ?k1 ?k2 ~topo ~struct_name ~line_size p =
  objective_of ?k1 ?k2 ~struct_name ~line_size p
    ~pen:(fun ~src ~dst -> penalty topo ~src ~dst)

let flat_objective ?k1 ?k2 ~struct_name ~line_size p =
  objective_of ?k1 ?k2 ~struct_name ~line_size p ~pen:(fun ~src:_ ~dst:_ -> 1.0)
