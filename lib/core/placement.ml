(* Node-to-shard placement for the parallel runtime.

   PR 7's engine assigned nodes to domains blindly ([ip mod domains]),
   which packs whatever nodes happen to collide mod N onto one domain:
   a skewed workload saturates that shard while its siblings idle (the
   E20 experiment measures exactly this).  The Mob line of work
   (Paulino & Lopes) migrates computations toward where execution is
   cheapest; this module applies the same idea at the coarser
   granularity the sharded engine controls — which domain a node's
   whole event stream runs on — using whatever load signal is
   available {e before} the run:

   - [Mod]: the PR 7 assignment, kept as the default and as the
     baseline the E20 gate compares against;
   - [Greedy]: greedy bin-packing (longest-processing-time order)
     seeded from static per-node weights — the runner passes site
     counts, the only load signal available without a prior run.

   Every policy yields a total map (each node gets exactly one shard
   in [0, domains)), is deterministic for fixed inputs, and pins node
   0 — the name-service host — to shard 0, which the engine requires
   for NS routing. *)

type policy = Mod | Greedy

let pp_policy ppf = function
  | Mod -> Format.fprintf ppf "mod"
  | Greedy -> Format.fprintf ppf "greedy"

(* Greedy bin-packing, LPT order: heaviest node first, each into the
   currently lightest shard.  Ties break on the lowest index on both
   sides, so the map is a pure function of the weights.  The classic
   4/3-approximation is more than enough here — the alternative being
   beaten is a placement that ignores weight entirely. *)
let greedy_map ~domains weights =
  if domains < 1 then invalid_arg "Placement.greedy_map: domains";
  let n = Array.length weights in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare weights.(b) weights.(a) with
      | 0 -> compare a b
      | c -> c)
    order;
  let load = Array.make domains 0. in
  let map = Array.make n 0 in
  Array.iter
    (fun node ->
      let best = ref 0 in
      for s = 1 to domains - 1 do
        if load.(s) < load.(!best) then best := s
      done;
      map.(node) <- !best;
      load.(!best) <- load.(!best) +. weights.(node))
    order;
  (* pin node 0 (the name-service host) to shard 0 by relabelling the
     two shard ids — a label swap, so the packing itself is unchanged *)
  (if n > 0 && map.(0) <> 0 then
     let s0 = map.(0) in
     Array.iteri
       (fun i s -> if s = s0 then map.(i) <- 0 else if s = 0 then map.(i) <- s0)
       map);
  map

let assign ~domains ~site_counts policy =
  if domains < 1 then invalid_arg "Placement.assign: domains";
  let nodes = Array.length site_counts in
  match policy with
  | Mod -> Array.init nodes (fun ip -> ip mod domains)
  | Greedy -> greedy_map ~domains (Array.map float_of_int site_counts)

(* Per-shard weight totals under [map] — what the report exposes so a
   dashboard can see the imbalance a placement produced. *)
let shard_weights ~domains ~map weights =
  let out = Array.make domains 0. in
  Array.iteri (fun node s -> out.(s) <- out.(s) +. weights.(node)) map;
  out

(* Max-over-mean of the per-shard totals: 1.0 is a perfect balance,
   [domains] is everything on one shard.  0 when there is no weight. *)
let imbalance per_shard =
  let n = Array.length per_shard in
  if n = 0 then 0.
  else begin
    let sum = Array.fold_left ( +. ) 0. per_shard in
    if sum <= 0. then 0.
    else
      let mx = Array.fold_left Float.max neg_infinity per_shard in
      mx /. (sum /. float_of_int n)
  end

(* Dynamic rebalancing (PR 10): given recent per-node load and the
   current node-to-shard map, pick one node to migrate.  The decision
   mirrors the greedy packing one move at a time: take the hottest and
   coldest shards, and move the hot shard's node whose load is closest
   to half the gap — the move that evens the pair out best.  A move is
   only proposed when

   - the max-over-mean imbalance exceeds [threshold] (hysteresis: a
     roughly balanced run never migrates), and
   - some candidate actually shrinks the gap ([load < hot - cold]:
     moving more than the whole gap would just swap the roles), and
   - the candidate is not node 0, which hosts the name service and is
     pinned to shard 0 for routing.

   One node per call: the runner issues at most one migration at a
   time, re-reading fresh loads before the next, so a burst of
   imbalance resolves as a short sequence of single moves rather than
   a thundering herd of simultaneous ships. *)
let choose_migration ~domains ~map ~loads ~threshold =
  let n = Array.length map in
  if Array.length loads <> n then
    invalid_arg "Placement.choose_migration: loads/map length mismatch";
  let per_shard = shard_weights ~domains ~map loads in
  if imbalance per_shard <= threshold then None
  else begin
    let hot = ref 0 and cold = ref 0 in
    for s = 1 to domains - 1 do
      if per_shard.(s) > per_shard.(!hot) then hot := s;
      if per_shard.(s) < per_shard.(!cold) then cold := s
    done;
    if !hot = !cold then None
    else begin
      let gap = per_shard.(!hot) -. per_shard.(!cold) in
      let target = gap /. 2. in
      let best = ref (-1) and best_d = ref infinity in
      for ip = 1 to n - 1 do
        if map.(ip) = !hot && loads.(ip) > 0. && loads.(ip) < gap then begin
          let d = Float.abs (loads.(ip) -. target) in
          if d < !best_d then begin
            best := ip;
            best_d := d
          end
        end
      done;
      if !best < 0 then None else Some (!best, !cold)
    end
  end
