(** Data packing (§VI-B): lay out state variables so that variables
    accessed contemporaneously share cache lines, after the cache-conscious
    structure definitions of Chilimbi et al.

    The granular decomposition provides the input for free: every NFAction
    declares the fields it touches. *)

type field = { name : string; bytes : int }

(** One action's field set with its access frequency. *)
type access = { fields : string list; weight : float }

(** Declaration-order layout with natural alignment — the unoptimised
    baseline. Returns (field offsets, total bytes). *)
val sequential : field list -> (string * int) list * int

(** Reference-affinity clustering: fields with identical access signatures
    are laid out contiguously; clusters are chained by signature overlap
    and aligned to cache lines when that saves a line per access. *)
val pack : line_bytes:int -> field list -> access list -> (string * int) list * int

(** Distinct cache lines one access touches under a layout. *)
val lines_touched : line_bytes:int -> field list -> (string * int) list -> access -> int
