(** Shared pretty-printing helpers built on {!Fmt}. *)

val comma_list : 'a Fmt.t -> 'a list Fmt.t
(** ["a, b, c"]. *)

val to_string : 'a Fmt.t -> 'a -> string
(** Render on an 80-column margin. *)
