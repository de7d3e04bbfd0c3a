(* Introsort over inclusive ranges: Hoare-partition quicksort around a
   median-of-three pivot, insertion sort on short ranges, and heap sort
   once the recursion is 2 log2 n deep. Every compare is an int compare
   and every move pairs a key with its value. *)

let short = 16

let swap (keys : int array) (vals : int array) i j =
  let k = keys.(i) and v = vals.(i) in
  keys.(i) <- keys.(j);
  vals.(i) <- vals.(j);
  keys.(j) <- k;
  vals.(j) <- v

let insertion (keys : int array) (vals : int array) lo hi =
  for i = lo + 1 to hi do
    let k = keys.(i) and v = vals.(i) in
    let j = ref (i - 1) in
    while !j >= lo && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    vals.(!j + 1) <- v
  done

(* A max-heap over the offsets from [lo]. *)
let heap (keys : int array) (vals : int array) lo hi =
  let rec sift root size =
    let c = (2 * root) + 1 in
    if c < size then begin
      let c =
        if c + 1 < size && keys.(lo + c + 1) > keys.(lo + c) then c + 1 else c
      in
      if keys.(lo + c) > keys.(lo + root) then begin
        swap keys vals (lo + root) (lo + c);
        sift c size
      end
    end
  in
  let n = hi - lo + 1 in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    swap keys vals lo (lo + last);
    sift 0 last
  done

(* Hoare's scheme: returns j with keys [lo, j] <= pivot <= keys [j + 1, hi]
   and lo <= j < hi, the pivot being a key of the range not at [hi]. *)
let rec partition (keys : int array) vals (pivot : int) i j =
  let i = ref (i + 1) and j = ref (j - 1) in
  while keys.(!i) < pivot do
    incr i
  done;
  while keys.(!j) > pivot do
    decr j
  done;
  if !i >= !j then !j
  else begin
    swap keys vals !i !j;
    partition keys vals pivot !i !j
  end

let rec intro (keys : int array) (vals : int array) lo hi depth =
  if hi - lo < short then insertion keys vals lo hi
  else if depth = 0 then heap keys vals lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if keys.(mid) < keys.(lo) then swap keys vals mid lo;
    if keys.(hi) < keys.(lo) then swap keys vals hi lo;
    if keys.(hi) < keys.(mid) then swap keys vals hi mid;
    let p = partition keys vals keys.(mid) (lo - 1) (hi + 1) in
    intro keys vals lo p (depth - 1);
    intro keys vals (p + 1) hi (depth - 1)
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let sort_by_key keys vals ~lo ~hi =
  if lo < 0 || hi > Array.length keys || hi > Array.length vals then
    invalid_arg "Int_sort.sort_by_key: range out of bounds";
  if hi - lo > 1 then intro keys vals lo (hi - 1) (2 * log2 (hi - lo))
