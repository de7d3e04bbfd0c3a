type t = { struct_name : string; fields : Slo_util.Names.t; loss : Float.Array.t }

module Table = Fmf.Table

let compute ~cm ~fmf ~struct_name ~fields =
  let table = Fmf.table fmf ~struct_name ~fields in
  let n = Slo_util.Names.length fields in
  (* Cell (i * n) + j, i < j, sums the loss of field indices i and j, in
     [Code_concurrency.pairs] order, then orientation, then entry order.
     Sums above 2^53 (maps with saturated cells) round differently in
     another order, so this order is part of the result. The lower half
     mirrors the upper one at the end. *)
  let m = Float.Array.make (n * n) 0.0 in
  let contribute l1 l2 v =
    let e1 = Table.at table ~line:l1 and e2 = Table.at table ~line:l2 in
    for a = 0 to Table.length e1 - 1 do
      let i = Table.field e1 a and w1 = Table.is_write e1 a in
      for b = 0 to Table.length e2 - 1 do
        let j = Table.field e2 b in
        (* False sharing needs a writer on at least one side. *)
        if i <> j && (w1 || Table.is_write e2 b) then begin
          let c = if i < j then (i * n) + j else (j * n) + i in
          Float.Array.set m c (Float.Array.get m c +. v)
        end
      done
    done
  in
  List.iter
    (fun ((l1, l2), cc) ->
      let v = float_of_int cc in
      if v > 0.0 then begin
        contribute l1 l2 v;
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
        if l1 <> l2 then contribute l2 l1 v
      end)
    (Code_concurrency.pairs cm);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Float.Array.set m ((j * n) + i) (Float.Array.get m ((i * n) + j))
    done
  done;
  { struct_name; fields; loss = m }
