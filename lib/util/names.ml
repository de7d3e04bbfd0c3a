type t = { names : string array; index : (string, int) Hashtbl.t; by_name : int array }

let make names =
  let n = Array.length names in
  let index = Hashtbl.create (2 * n) in
  let rec fill i =
    if i = n then
      let by_name = Array.init n Fun.id in
      Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) by_name;
      Ok { names; index; by_name }
    else if Hashtbl.mem index names.(i) then Error names.(i)
    else begin
      Hashtbl.replace index names.(i) i;
      fill (i + 1)
    end
  in
  fill 0

let length t = Array.length t.names
let find_opt t name = Hashtbl.find_opt t.index name

let fold_pairs_by_name t ~init ~f =
  let n = Array.length t.by_name in
  let acc = ref init in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      acc := f !acc t.by_name.(a) t.by_name.(b)
    done
  done;
  !acc
