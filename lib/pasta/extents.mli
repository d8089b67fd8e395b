(** Sorted [[base, limit)] extents stored as flat, unboxed int pairs in
    fixed-size chunks: [[ [| b0; l0; b1; l1; ... |]; ... ]].

    Every chunk holds {!chunk_ints} ints (128 pairs) except the last,
    which holds the rest, so one pair sequence has exactly one chunked
    form and structural equality compares the pairs.  The chunk size is
    the largest array OCaml 5 allocates in the minor heap (256 words):
    a summary's extents are built, read and dropped within one kernel's
    flush, and chunks that die young cost a minor collection nothing,
    while one flat array of the same words would be allocated straight
    into the major heap and drive extra major-GC cycles. *)

type t = int array list

val chunk_ints : int

val empty : t

val length : t -> int
(** Number of pairs. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f e] calls [f base limit] on every pair, in order. *)

type builder

val builder : unit -> builder

val push : builder -> int -> int -> unit
(** Append one pair.  Allocates a chunk only when the current one is
    full, so memory follows the pairs pushed, never a declared count. *)

val finish : builder -> t

val of_pairs : (int * int) list -> t
val to_pairs : t -> (int * int) list

val coalesce : ((int -> int -> unit) -> unit) -> t
(** [coalesce iter] fuses the pairs [iter] produces — in base order —
    wherever they overlap or touch, in one pass. *)

val merge : t array -> (int -> int -> unit) -> unit
(** [merge srcs f] feeds [f] the pairs of every base-sorted source in one
    base-ordered pass: a binary min-heap of source cursors keyed by each
    source's next base, O(n log k) for [k] sources and [n] pairs, with no
    concatenation or sort scratch.  A trailing odd int in a chunk is
    ignored; chunks of any size are accepted. *)
