(** Node-to-shard placement for the parallel runtime ({!Par_runner}).

    Replaces PR 7's blind [ip mod domains] with a pluggable placement
    map.  All policies produce a {e total} map (every node assigned
    exactly one shard in [0, domains)), are {e deterministic} for
    fixed inputs, and pin node 0 — the name-service host — to shard 0
    (the engine routes NS traffic to shard 0's rings).  Tested
    directly by test_par.ml. *)

type policy =
  | Mod  (** [ip mod domains] — the PR 7 default, and the baseline. *)
  | Greedy
      (** Greedy bin-packing (heaviest node into the lightest shard)
          seeded from static per-node site counts. *)

val pp_policy : Format.formatter -> policy -> unit

val assign : domains:int -> site_counts:int array -> policy -> int array
(** [assign ~domains ~site_counts policy] maps node ip [i] to shard
    [(assign ...).(i)].  [site_counts.(i)] is the number of sites
    placed on node [i] (the static weight [Greedy] packs by; [Mod]
    uses only its length).  Raises [Invalid_argument] when
    [domains < 1]. *)

val greedy_map : domains:int -> float array -> int array
(** The bare bin-packing: deterministic, total, node 0 pinned to
    shard 0 (by shard-label swap, which preserves the packing). *)

val shard_weights : domains:int -> map:int array -> float array -> float array
(** Per-shard totals of [weights] under [map] — the imbalance signal
    the parallel report exposes. *)

val imbalance : float array -> float
(** Max-over-mean of per-shard weights: 1.0 = perfectly balanced,
    [domains] = everything on one shard, 0 = no weight at all. *)

val choose_migration :
  domains:int ->
  map:int array ->
  loads:float array ->
  threshold:float ->
  (int * int) option
(** [choose_migration ~domains ~map ~loads ~threshold] proposes at
    most one live migration given [loads.(ip)] = node [ip]'s recent
    load and [map.(ip)] its current shard: [Some (ip, dst)] moves the
    node from the hottest shard whose load best fills half the
    hot-cold gap to the coldest shard.  [None] when the max-over-mean
    imbalance is at or below [threshold], when no move shrinks the
    gap, or when the only candidate is node 0 (the pinned name-service
    host, never migrated).  Deterministic for fixed inputs; the
    runner's rebalancer calls this once per observation interval. *)
