(** In-place sort of int keys carrying an int value each.

    [Array.sort] is a heap sort through a closure compare, and sorting
    keys with their values that way needs an array of pairs or a second
    lookup per key. The CodeConcurrency kernel sorts every line's counts
    with their CPUs, its binning the line ranks each interval touches,
    and [Sample.rows] a table's packed keys with their counts, so they
    sort two parallel int arrays instead: an introsort (quicksort,
    insertion sort on short ranges, heap sort past 2 log2 n levels of
    recursion, so O(n log n) in the worst case) that compares ints
    directly and allocates nothing. *)

val sort_by_key : int array -> int array -> lo:int -> hi:int -> unit
(** [sort_by_key keys vals ~lo ~hi] sorts [keys.(lo) .. keys.(hi - 1)]
    ascending and moves each [vals.(i)] with its key. Not stable: the
    values of equal keys end in an unspecified order.
    @raise Invalid_argument if [lo < 0] or [hi] exceeds either array's
    length. *)
