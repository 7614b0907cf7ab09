(** Exposition of a finished run's counts.

    A run counts only in {!Stats} registries: each cluster or shard
    keeps one for its transport and daemon, each TCP node one for its
    sockets and daemon, always on.  Nothing here runs while a run is
    live.  A caller that exports assembles one registry from the
    finished run's (the engines' shards and nodes merge with
    {!Stats.merge_into}) and writes it with {!to_prom} or {!to_json}. *)

type t = Stats.t
(** A registry to export: its counters, then its distributions, in
    registration order. *)

val value : t -> string -> int
(** Counter value by name; 0 when never registered (does not create). *)

val to_prom : t -> string
(** Prometheus text format: counters as [tyco_<name>], distributions
    as summaries with p50/p95/p99/p999 quantiles, [_sum] and
    [_count]. *)

val to_json : ?extra:(string * string) list -> t -> string
(** One-line JSON object (JSONL-friendly): counters as numbers,
    distributions as [{n, mean, min, max, p50, p95, p99, p999}] or
    [null] when empty.  [extra] key/value pairs (values already
    JSON-encoded) lead the object. *)
