(* The parallel execution engine: the cluster sharded over OCaml 5
   domains.

   Each shard is a {!Cluster} over its own fabric — Simnet (clock,
   heap, PRNG), books, trace collector, statistics registry — that runs
   the {!Node} daemons of a disjoint set of nodes and everything
   beneath them: sites, VMs, export tables, intern areas, statistics
   reservoirs.  Which nodes a shard runs is decided by a placement map
   ({!Placement}): [ip mod domains] by default, or greedy bin-packing
   over static site counts when the caller wants load-aware sharding.
   Every cross-node packet leaves its node through the shard cluster's
   outbox, one frame per flush, exactly as in the deterministic
   engine; a frame whose node runs on another shard leaves the cluster
   through its departure hook, after the fault dice have rolled, and
   this module carries it to the cluster of that shard.  No mutable
   state is shared between shards: the only cross-domain traffic is

   - {e frames} and node {e migrations} through one
     {!Tyco_support.Spsc_ring} per ordered shard pair, and
   - the run's {!Workers} skeleton (the work count, the stop flag,
     each shard's bell) and a handful of whole-run atomics (per-shard
     executed-event counters, the node-to-shard indirection table)
     that exist for termination detection, the event budget and
     routing.

   Handoff: each shard buffers departing frames per destination shard
   and pushes each buffered frame as its own ring element at every
   event boundary, so a frame waits for at most the rest of the event
   that sent it.  The cluster's outbox already puts a flush's packets
   into one frame, and each flush is its own event, so an event sends
   a sibling one frame.  Buffers flush only at event boundaries: a
   flush that met a full ring inside an event would drain the inbound
   rings while the event's own work was not yet in the heap.

   Termination and parking ({!Workers}): a shard holds its work unit
   while its heap is non-empty; a flush counts its element before the
   push, and a consumer takes its unit before it uncounts the element.
   Whoever pushes into a ring or posts a command then rings the
   consumer's bell.

   Dynamic rebalancing (PR 10): node ownership is no longer fixed for
   the run.  The node-to-shard map is an array of atomics (the
   {e indirection table}); the coordinator watches per-node executed
   pump cost and, when the imbalance crosses a threshold
   ({!Placement.choose_migration}), posts a migration command to the
   owning shard; the command holds a work unit of its own until the
   owner has acted on it.  At its next step boundary the owner
   {e ships} the node: it takes one work unit (the
   node-in-transit obligation, held until the receiver finishes
   installing — quiescence cannot fire with a node inside a ring),
   publishes the new owner in the indirection table, detaches the node
   from its cluster (which flushes the node's outboxes; quanta still
   queued here become no-ops), flushes its buffers and pushes the
   daemon whole — sites included — as a [Mig] element through the
   ordinary ring.  The receiver attaches the daemon to its own cluster
   — the sites' callbacks follow, since they reach the engine through
   the node's host — lands any frames that raced ahead of the element
   (parked in [limbo] under the same work unit), and only then
   releases the unit.  A frame for a node the shard does not run takes
   the not-here path: {e forwarded} along the current table when the
   node lives elsewhere, parked in limbo when it is still in transit
   here, so stale senders lose nothing.  A node serving a name-service
   replica stays where it is: the replies it owes are scheduled on its
   shard's clock.

   Clock merge rule: a frame sent at sender-virtual time [s] with wire
   delay [d] is delivered at receiver-virtual time
   [max (receiver now) (s + d)] — delivery timestamps stay monotone
   per receiver, at the price of cross-shard timestamps depending on
   domain interleaving.  This engine preserves output *sets*, not
   timestamps.  One shard is the deterministic engine: its cluster
   draws from the run seed, no ring exists, and its outputs, clock and
   trace are a plain {!Cluster} run's.  A migrated node's core
   occupancy is reset on install because the two shard clocks are not
   comparable.

   Scope: reliable delivery is rejected at more than one domain: its
   retransmission timer and the sites' request deadlines run on shard
   clocks the merge rule does not synchronize, so a reply from a shard
   whose clock runs ahead can land after a deadline.  Tracing is
   rejected {e when rebalancing}: a site's trace collector is captured
   at creation and cannot follow the site across domains without
   sharing a collector.

   Observability: each shard's cluster owns a private {!Trace}
   collector (span ids strided by [shard + k * domains] so they stay
   globally unique without a shared counter) and a private
   {!Tyco_support.Stats} registry, in which this module also counts
   the shard's handoffs, handoff latency, drains and migrations;
   frames carry their packets' spans across the ring, so cross-shard
   packets keep their causal tree.  Shard state is read from outside
   only after the joins: the traces merge then, and the registries
   whenever a caller asks for a report ({!Report.of_parallel}). *)

module Simnet = Tyco_net.Simnet
module Stats = Tyco_support.Stats
module Trace = Tyco_support.Trace
module Spsc = Tyco_support.Spsc_ring

exception Shard_failure of int * string

(* One handed-off frame and the sender's clock at departure; the
   receiver needs nothing else of the sender. *)
type envelope = {
  env_frame : Cluster.frame;
  env_sent : int;
  env_due : int; (* [env_sent] plus the wire delay *)
}

(* Per-destination accumulation buffer (producer-shard confined). *)
type outbuf = {
  mutable hb_envs : envelope array;
  mutable hb_count : int;
}

type global = {
  g_domains : int;
  (* the indirection table: node ip -> owning shard.  Atomic so a
     migration's publication is a release/acquire edge — a stale
     sender reads an old owner at worst, and the old owner forwards *)
  g_shard_map : int Atomic.t array;
  g_run : Workers.t;
  g_workers : Workers.worker array; (* index = shard *)
  (* per-shard executed-event counters, summed at step boundaries so
     [max_events] bounds the run globally (the Simnet.run livelock
     guard), not per shard *)
  g_executed : int Atomic.t array;
  g_migrations : int Atomic.t; (* installs completed, coordinator-read *)
}

type shard = {
  sh_id : int;
  g : global;
  (* the shard: its fabric and the daemons of the nodes attached to it.
     Only the owning domain touches a node; ring push/pop orders the
     handover of a migrating one *)
  c : Cluster.t;
  w : Workers.worker;
  in_rings : element Spsc.t option array; (* index = source shard *)
  out_rings : element Spsc.t option array; (* index = destination shard *)
  out_bufs : outbuf array; (* index = destination shard; self unused *)
  weight : float; (* this shard's placement weight (reporting only) *)
  (* frames that arrived for a node this shard owns per the table but
     has not installed yet (they raced ahead of the migration element,
     whose work unit covers them): landed at install, keyed by node
     ip *)
  limbo : (int, envelope list ref) Hashtbl.t;
  (* coordinator-posted migration command: [ip * domains + dst], or
     -1 for none; consumed at the step boundary.  A posted command
     holds one work unit, so quiescence cannot be declared while a
     shard may still act on it *)
  mig_cmd : int Atomic.t;
  (* migrations dropped at teardown (stop while pushing): kept so
     the post-join merge still sees their sites' stats *)
  mutable lost_migs : migration list;
  (* shard-confined, in the cluster's registry; read after join *)
  c_handoffs_in : Stats.Counter.t; (* frames received through rings *)
  c_drains : Stats.Counter.t; (* backpressure drain passes while pushing *)
  c_migrations : Stats.Counter.t; (* nodes this shard installed *)
  c_migration_ns : Stats.Counter.t; (* wall ns, ship to install, summed *)
  d_handoff_lat : Stats.Dist.t; (* virtual ns from send to landing *)
}

(* What travels through a ring: one frame, or one migrating node — its
   whole daemon, sites included. *)
and element =
  | Frame of envelope
  | Mig of migration

and migration = {
  mg_ip : int;
  mg_node : Node.t;
  mg_sent_wall : float; (* host clock at ship, for [migration_ns] *)
}

let shard_of_ip g ip = Atomic.get (Array.unsafe_get g.g_shard_map ip)

(* ------------------------------------------------------------------ *)
(* The ring hop between the shards' clusters.                          *)

let enqueue_handoff sh ~dst_shard env =
  let ub = Array.unsafe_get sh.out_bufs dst_shard in
  let n = ub.hb_count in
  if n = Array.length ub.hb_envs then begin
    let grown = Array.make (max 8 (2 * n)) env in
    Array.blit ub.hb_envs 0 grown 0 n;
    ub.hb_envs <- grown
  end;
  ub.hb_envs.(n) <- env;
  ub.hb_count <- n + 1

(* The cluster's departure hook: a frame for a node this shard does
   not run. *)
let depart sh ~delay f =
  let now = Simnet.now (Cluster.sim sh.c) in
  let env = { env_frame = f; env_sent = now; env_due = now + delay } in
  let ip = Cluster.frame_dst f in
  let owner = shard_of_ip sh.g ip in
  if owner <> sh.sh_id then enqueue_handoff sh ~dst_shard:owner env
  else begin
    (* the table says this shard owns the node, but its migration
       element has not been popped yet: park the frame in limbo.  The
       element's work unit (held until the install lands this queue)
       keeps quiescence from firing with the frame parked here *)
    let q =
      match Hashtbl.find_opt sh.limbo ip with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.add sh.limbo ip q;
          q
    in
    q := env :: !q
  end

(* Land a frame on this shard's fabric by the clock merge rule;
   returns the time it lands. *)
let land_frame sh env =
  let now = Simnet.now (Cluster.sim sh.c) in
  let at = max now env.env_due in
  Cluster.take_frame sh.c ~delay:(at - now) env.env_frame;
  at

(* Flush one destination's buffer: each frame is its own ring element,
   counted as one work unit before the pushes. *)
let rec flush_handoff sh ~dst_shard ub =
  let count = ub.hb_count in
  Workers.count sh.g.g_run count;
  for i = 0 to count - 1 do
    push_element sh ~dst_shard (Frame ub.hb_envs.(i))
  done;
  ub.hb_count <- 0

(* Flush every non-empty buffer; called at every event boundary, so
   it allocates nothing when the buffers are empty.  Returns the number
   of buffers flushed so the loop can tell an idle pass from one that
   produced work for a sibling. *)
and flush_handoffs sh =
  let flushed = ref 0 in
  for dst_shard = 0 to Array.length sh.out_bufs - 1 do
    let ub = Array.unsafe_get sh.out_bufs dst_shard in
    if ub.hb_count > 0 then begin
      flush_handoff sh ~dst_shard ub;
      incr flushed
    end
  done;
  !flushed

and push_element sh ~dst_shard el =
  let ring =
    match sh.out_rings.(dst_shard) with
    | Some r -> r
    | None -> assert false (* dst_shard <> sh_id by construction *)
  in
  if not (Spsc.try_push ring el) then begin
    (* Backpressure: the ring is bounded, so spin — but keep draining
       our own inbound rings while we wait, otherwise two shards
       pushing into each other's full rings deadlock. *)
    let spins = ref 0 in
    let pushed = ref false in
    while not !pushed do
      if Workers.stopped sh.g.g_run then begin
        (* the run is being torn down (error or timeout): drop rather
           than block forever against a consumer that already exited.
           A dropped migration is remembered so the merge still sees
           its sites *)
        (match el with
        | Mig m -> sh.lost_migs <- m :: sh.lost_migs
        | Frame _ -> ());
        Workers.uncount sh.g.g_run 1;
        pushed := true
      end
      else if Spsc.try_push ring el then pushed := true
      else begin
        Stats.Counter.incr sh.c_drains;
        ignore (drain_rings sh);
        incr spins;
        if !spins < 64 then Domain.cpu_relax () else Unix.sleepf 2e-5
      end
    done
  end;
  Workers.ring sh.g.g_workers.(dst_shard)

(* Consume one inbound frame: land it, hold the shard's unit for what
   that scheduled, and only then uncount the element. *)
and absorb_frame sh env =
  Stats.Counter.incr sh.c_handoffs_in;
  Stats.Dist.add_int sh.d_handoff_lat (land_frame sh env - env.env_sent);
  Workers.hold sh.w;
  Workers.uncount sh.g.g_run 1

(* Install a migrated node: run its daemon here, land the frames that
   raced ahead of it (parked in limbo), and only then release the
   in-transit unit. *)
and install_migration sh (m : migration) =
  Stats.Counter.incr sh.c_migrations;
  Stats.Counter.add sh.c_migration_ns
    (int_of_float ((Unix.gettimeofday () -. m.mg_sent_wall) *. 1e9));
  Cluster.attach sh.c m.mg_node;
  (match Hashtbl.find_opt sh.limbo m.mg_ip with
  | Some q ->
      Hashtbl.remove sh.limbo m.mg_ip;
      List.iter (fun env -> ignore (land_frame sh env)) (List.rev !q)
  | None -> ());
  Workers.hold sh.w;
  Atomic.incr sh.g.g_migrations;
  Workers.uncount sh.g.g_run 1

(* Ship one node to [dst]: the source half of a migration, run at the
   step boundary so no event is mid-flight on this shard.  Publishing
   the new owner *after* taking the in-transit unit and *before*
   detaching the node keeps every window covered: frames landing here
   afterwards find no node and forward; frames landing at the
   destination early park in its limbo under the unit we hold. *)
and ship_node sh ~ip ~dst =
  match List.find_opt (fun n -> Node.ip n = ip) (Cluster.nodes sh.c) with
  | Some node
    when dst <> sh.sh_id && dst >= 0 && dst < sh.g.g_domains
         && Node.sites node <> [] && not (Node.serves_names node) ->
      Workers.count sh.g.g_run 1;
      Atomic.set sh.g.g_shard_map.(ip) dst;
      (* the node's queued packets, and every frame buffered here,
         leave before the node does *)
      Cluster.detach sh.c node;
      ignore (flush_handoffs sh);
      push_element sh ~dst_shard:dst
        (Mig { mg_ip = ip; mg_node = node; mg_sent_wall = Unix.gettimeofday () })
  | _ -> ()

and absorb_element sh = function
  | Frame env -> absorb_frame sh env
  | Mig m -> install_migration sh m

and drain_rings sh =
  let got = ref 0 in
  for src = 0 to Array.length sh.in_rings - 1 do
    match Array.unsafe_get sh.in_rings src with
    | None -> ()
    | Some ring ->
        let draining = ref true in
        while !draining do
          match Spsc.pop_exn ring with
          | el ->
              absorb_element sh el;
              incr got
          | exception Spsc.Empty -> draining := false
        done
  done;
  !got

(* ------------------------------------------------------------------ *)
(* The per-domain driver loop.                                         *)

(* One pass per event: drain the inbound rings, run at most one
   [Simnet.step], flush what that event sent to siblings, consume a
   posted migration command, then hold the shard's work unit or give
   it up.  A frame reaches its ring as soon as the event that sent it
   returns, so a sibling never waits on a long run of local events.
   Returns whether the pass found anything to do. *)
let shard_pass sh ~max_events =
  (* the event budget is global — the sum over shards must respect
     [max_events] exactly as [Simnet.run]'s livelock guard does at
     --domains 1, not [domains * max_events].  The sum is folded every
     256 local events and before the shard gives up its unit, so no
     run quiesces past the budget unchecked *)
  let unchecked = ref 0 in
  let check_budget () =
    unchecked := 0;
    if Array.fold_left (fun acc c -> acc + Atomic.get c) 0 sh.g.g_executed
       > max_events
    then
      failwith
        (Printf.sprintf "Par_runner: exceeded %d events (livelock?)"
           max_events)
  in
  let sim = Cluster.sim sh.c in
  fun () ->
    let drained = drain_rings sh in
    let stepped = Simnet.step sim in
    if stepped then begin
      Atomic.incr sh.g.g_executed.(sh.sh_id);
      incr unchecked
    end;
    let flushed = flush_handoffs sh in
    (* the exchange is paid only when a command is posted *)
    let shipped = Atomic.get sh.mig_cmd >= 0 in
    if shipped then begin
      let cmd = Atomic.exchange sh.mig_cmd (-1) in
      ship_node sh ~ip:(cmd / sh.g.g_domains) ~dst:(cmd mod sh.g.g_domains);
      (* release the command's unit only now that a shipped node holds
         its own *)
      Workers.uncount sh.g.g_run 1
    end;
    (* every pass ends with its buffers flushed, so the heap is the
       shard's only work *)
    let busy = Simnet.pending sim > 0 in
    if !unchecked >= 256 || ((not busy) && !unchecked > 0) then check_budget ();
    Workers.settle sh.w ~busy;
    stepped || drained > 0 || flushed > 0 || shipped

(* The parked shard's last look: an element in a ring or a posted
   command would not wake it otherwise. *)
let has_input sh () =
  Atomic.get sh.mig_cmd >= 0
  || Array.exists
       (function Some r -> not (Spsc.is_empty r) | None -> false)
       sh.in_rings

(* ------------------------------------------------------------------ *)
(* Construction, loading, coordination.                                *)

(* Per-shard section of the run report: ring traffic, occupancy
   high-water, backpressure and parking — the signals that say where a
   parallel run's time went. *)
type shard_stat = {
  ss_shard : int;
  ss_sites : int;
  ss_events : int;
  ss_virtual_ns : int;
  ss_ring_pushed : int; (* elements this shard pushed outbound *)
  ss_ring_popped : int; (* elements this shard consumed *)
  ss_ring_hiwater : int; (* max outbound-ring occupancy at push *)
  ss_parks : int;
  ss_drains : int; (* backpressure drain passes while pushing *)
  ss_weight : float; (* placement weight this shard was assigned *)
  ss_stats : Stats.t; (* the shard cluster's registry *)
}

(* A coordinator-side mid-run observation: only whole-run atomics and
   ring counters are read (never shard heaps), so taking one is safe
   while the domains run.  This is what [--metrics-out] streams. *)
type snapshot = {
  sn_wall_ms : float;
  sn_work : int; (* the run's work count *)
  sn_executed : int array; (* per shard, monotone *)
  sn_ring_pushed : int; (* elements *)
  sn_ring_popped : int;
  sn_migrations : int; (* node installs completed so far *)
}

(* Dynamic-rebalancing knobs ([tycosh --rebalance interval:MS,threshold:R]):
   every [rb_interval_ms] the coordinator reads per-node load deltas
   and, when max-over-mean per-shard load exceeds [rb_threshold],
   issues one migration ({!Placement.choose_migration}). *)
type rebalance = {
  rb_interval_ms : int;
  rb_threshold : float;
}

type result = {
  outputs : (int * Output.event) list; (* merged, sorted by timestamp *)
  handoffs : int; (* frames carried by rings *)
  ring_pushed : int; (* elements pushed (= pops after a clean run) *)
  ring_popped : int;
  ring_batch_fill_mean : float; (* frames per ring element: 1 or 0 *)
  parks : int; (* blocking parks across all shards *)
  domains : int;
  wall_ns : int;
  dead_letters : int;
  suspected : (int * string) list;
  node_weights : float array; (* measured per-node instruction counts *)
  clean : bool; (* quiesced with rings drained, heaps and limbo empty *)
  timed_out : bool;
  trace : Trace.t; (* the shard's own, or merged shard-tagged ones *)
  shard_stats : shard_stat array;
  sites : Site.t list; (* post-join reads only (join = happens-before) *)
}

let ring_capacity = 4096

(* [f] over a row of the ring matrix, combined with [combine] *)
let fold_rings combine f rings =
  Array.fold_left
    (fun acc -> function None -> acc | Some r -> combine acc (f r))
    0 rings

let run ?(config = Cluster.default_config) ?placement
    ?(policy = Placement.Mod) ?(max_events = 10_000_000)
    ?(max_wall_ms = 120_000) ?on_snapshot ?(snapshot_every_ms = 100)
    ?rebalance ?(force_migrations = []) ~domains
    (units : (string * Tyco_compiler.Block.unit_) list) =
  if domains < 1 then invalid_arg "Par_runner.run: domains must be >= 1";
  if domains > 1 && config.Cluster.reliable then
    invalid_arg
      "Par_runner: reliable delivery requires --domains 1 (its \
       retransmission timer and request deadlines run on shard clocks \
       that are not synchronized, so a reply can land after a deadline)";
  let rb_requested = rebalance <> None || force_migrations <> [] in
  if domains > 1 && rb_requested && config.Cluster.tracing then
    invalid_arg
      "Par_runner: tracing with dynamic rebalancing requires --domains 1 \
       (a site's trace collector cannot follow it across domains)";
  let nnodes = config.Cluster.nodes in
  List.iter
    (fun (ip, dst) ->
      if ip <= 0 || ip >= nnodes then
        invalid_arg
          (Printf.sprintf
             "Par_runner: cannot migrate node %d (node 0 is pinned; the \
              cluster has %d nodes)"
             ip nnodes);
      if dst < 0 || dst >= domains then
        invalid_arg
          (Printf.sprintf
             "Par_runner: migration of node %d targets shard %d of %d" ip
             dst domains))
    force_migrations;
  (* resolve every site's node first: the placement policy needs the
     per-node site counts before any shard exists *)
  let site_nodes =
    Node.place ~who:"Par_runner.run" ~nodes:nnodes ?placement units
  in
  let site_counts = Array.make nnodes 0 in
  List.iter (fun n -> site_counts.(n) <- site_counts.(n) + 1) site_nodes;
  let shard_map = Placement.assign ~domains ~site_counts policy in
  assert (Array.length shard_map = nnodes);
  assert (nnodes = 0 || shard_map.(0) = 0) (* NS host pinned to shard 0 *);
  let placement_weights =
    Placement.shard_weights ~domains ~map:shard_map
      (Array.map float_of_int site_counts)
  in
  let run = Workers.create () in
  let g =
    { g_domains = domains;
      g_shard_map = Array.map Atomic.make shard_map;
      g_run = run;
      g_workers = Array.init domains (fun id -> Workers.worker run ~id);
      g_executed = Array.init domains (fun _ -> Atomic.make 0);
      g_migrations = Atomic.make 0 }
  in
  (* ring matrix: rings.(src).(dst) carries src -> dst *)
  let rings =
    Array.init domains (fun src ->
        Array.init domains (fun dst ->
            if src = dst then None
            else Some (Spsc.create ~capacity:ring_capacity)))
  in
  let nodes = Cluster.make_nodes config in
  let shards =
    Array.init domains (fun s ->
        let c = Cluster.shard config ~nodes ~index:s ~count:domains in
        let counter = Stats.counter (Cluster.stats c) in
        let c_handoffs_in = counter "handoffs_in" in
        let c_drains = counter "drains" in
        let c_migrations = counter "migrations" in
        let c_migration_ns = counter "migration_ns" in
        { sh_id = s;
          g;
          c;
          w = g.g_workers.(s);
          in_rings = Array.init domains (fun src -> rings.(src).(s));
          out_rings = rings.(s);
          out_bufs =
            Array.init domains (fun _ -> { hb_envs = [||]; hb_count = 0 });
          weight = placement_weights.(s);
          limbo = Hashtbl.create 4;
          mig_cmd = Atomic.make (-1);
          lost_migs = [];
          c_handoffs_in;
          c_drains;
          c_migrations;
          c_migration_ns;
          d_handoff_lat = Stats.dist (Cluster.stats c) "handoff_lat_ns" })
  in
  Array.iter (fun sh -> Cluster.on_depart sh.c (depart sh)) shards;
  Array.iter
    (fun node -> Cluster.attach shards.(shard_of_ip g (Node.ip node)).c node)
    nodes;
  (* load sites (on the coordinating domain, before any shard domain
     exists — construction is the last moment state is shared), site
     ids in unit order, as [Cluster.load] numbers them *)
  List.iteri
    (fun site_id ((name, unit_), node_idx) ->
      ignore
        (Node.load_site nodes.(node_idx) ~name ~site_id unit_))
    (List.combine units site_nodes);
  (* Post a migration command to shard [src] if its slot is free.  The
     command's work unit is taken before the CAS (and given back if the
     CAS fails), so the count covers it from the moment the shard can
     see it; the bell is rung after it. *)
  let post ~src ~ip ~dst =
    Workers.count run 1;
    if Atomic.compare_and_set shards.(src).mig_cmd (-1) ((ip * domains) + dst)
    then (Workers.ring shards.(src).w; true)
    else (Workers.uncount run 1; false)
  in
  (* forced migrations (the deterministic test hook): posted before the
     domains spawn, so each is consumed at the owning shard's first
     step boundary and is guaranteed installed in a clean run.  A
     command whose shard slot is taken retries at every coordinator
     tick, at the skeleton's shortest wait; a tick runs before each
     look at the work count, so it is installed in a clean run too. *)
  let forced = ref force_migrations in
  let try_post_forced () =
    forced :=
      List.filter
        (fun (ip, dst) ->
          let src = Atomic.get g.g_shard_map.(ip) in
          src <> dst (* else already there *) && not (post ~src ~ip ~dst))
        !forced
  in
  try_post_forced ();
  Array.iter
    (fun sh -> Workers.settle sh.w ~busy:(Simnet.pending (Cluster.sim sh.c) > 0))
    shards;
  (* run *)
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun sh ->
      Workers.start sh.w ~ready:(has_input sh) ~pass:(shard_pass sh ~max_events))
    shards;
  (* Mid-run snapshots ([--metrics-out]): reads only whole-run atomics
     and ring counters — never a shard heap — so it is safe while the
     domains run. *)
  let ring_totals () =
    let total f =
      Array.fold_left (fun acc row -> acc + fold_rings ( + ) f row) 0 rings
    in
    (total Spsc.pushed, total Spsc.popped)
  in
  let snapshot () =
    let pushed, popped = ring_totals () in
    { sn_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      sn_work = Workers.work run;
      sn_executed = Array.map Atomic.get g.g_executed;
      sn_ring_pushed = pushed;
      sn_ring_popped = popped;
      sn_migrations = Atomic.get g.g_migrations }
  in
  (* The rebalancer: every interval, turn the per-node load-counter
     deltas into a load estimate and ask {!Placement.choose_migration}
     for at most one move.  One migration is outstanding at a time
     (issued vs installed), so each decision sees the effect of the
     previous one. *)
  let issued = ref 0 in
  let last_loads = Array.make nnodes 0 in
  let rebalance_once rb =
    let loads =
      Array.mapi
        (fun ip node ->
          let v = Node.load node in
          let d = v - last_loads.(ip) in
          last_loads.(ip) <- v;
          float_of_int d)
        nodes
    in
    if !issued = Atomic.get g.g_migrations then begin
      let map = Array.map Atomic.get g.g_shard_map in
      match
        Placement.choose_migration ~domains ~map ~loads
          ~threshold:rb.rb_threshold
      with
      | None -> ()
      | Some (ip, dst) -> if post ~src:map.(ip) ~ip ~dst then incr issued
    end
  in
  (* [f ()] once [ms] have passed since [last]; the seconds until it
     is due again *)
  let every ms last f =
    let now = Unix.gettimeofday () and period = float_of_int ms /. 1000. in
    if now -. !last >= period then (last := now; f ());
    !last +. period -. now
  in
  let last_snapshot = ref t0 and last_rb = ref t0 in
  let tick () =
    Float.min
      (match on_snapshot with
      | None -> Float.infinity
      | Some f -> every snapshot_every_ms last_snapshot (fun () -> f (snapshot ())))
      (if !forced <> [] then (try_post_forced (); 0.)
       else
         match rebalance with
         | None -> Float.infinity
         | Some rb -> every rb.rb_interval_ms last_rb (fun () -> rebalance_once rb))
  in
  let timed_out =
    Workers.wait run
      ~deadline:(t0 +. (float_of_int max_wall_ms /. 1000.))
      ~tick ()
  in
  Workers.join run ~fail:(fun id m -> Shard_failure (id, m));
  let wall_ns =
    int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  (* merge (the only time shard state is read from outside) *)
  let outputs =
    (* each shard's outputs are in recording order already *)
    List.stable_sort
      (fun (ts1, _) (ts2, _) -> compare ts1 ts2)
      (List.concat_map (fun sh -> Cluster.outputs sh.c) (Array.to_list shards))
  in
  let sum (f : shard -> int) =
    Array.fold_left (fun acc sh -> acc + f sh) 0 shards
  in
  (* no ring pops more than was pushed into it, so the totals agree only
     when every ring is empty *)
  let ring_pushed, ring_popped = ring_totals () in
  let clean =
    (not timed_out) && ring_pushed = ring_popped
    && Workers.work run = 0
    && Array.for_all
         (fun sh ->
           Simnet.pending (Cluster.sim sh.c) = 0 && Hashtbl.length sh.limbo = 0)
         shards
  in
  (* every site this shard can account for: those of its nodes plus
     those of any migration it had to drop at teardown *)
  let sites_here (sh : shard) =
    List.concat_map Node.sites (Cluster.nodes sh.c)
  in
  let shard_sites (sh : shard) =
    List.sort
      (fun a b -> compare (Site.site_id a) (Site.site_id b))
      (sites_here sh)
    @ List.concat_map (fun m -> Node.sites m.mg_node) sh.lost_migs
  in
  let sites = List.concat_map shard_sites (Array.to_list shards) in
  let node_weights = Array.make nnodes 0. in
  List.iter
    (fun s ->
      let ip = Site.ip s in
      node_weights.(ip) <-
        node_weights.(ip)
        +. float_of_int (Stats.counter_value (Site.stats s) "instructions"))
    sites;
  (* Observability merge: fold the shard-confined collectors into run-
     level ones.  [Domain.join] above is the happens-before edge that
     makes every shard-local field safe to read here. *)
  let shard_stats =
    Array.map
      (fun sh ->
        { ss_shard = sh.sh_id;
          ss_sites = List.length (sites_here sh);
          ss_events = Atomic.get g.g_executed.(sh.sh_id);
          ss_virtual_ns = Cluster.virtual_time sh.c;
          ss_ring_pushed = fold_rings ( + ) Spsc.pushed sh.out_rings;
          ss_ring_popped = fold_rings ( + ) Spsc.popped sh.in_rings;
          ss_ring_hiwater = fold_rings max Spsc.hiwater sh.out_rings;
          ss_parks = Workers.parks sh.w;
          ss_drains = Stats.Counter.value sh.c_drains;
          ss_weight = sh.weight;
          ss_stats = Cluster.stats sh.c })
      shards
  in
  let handoffs = sum (fun sh -> Stats.Counter.value sh.c_handoffs_in) in
  let trace =
    match shards with
    | [| sh |] -> Cluster.tracer sh.c
    | _ when config.Cluster.tracing ->
        Trace.merge
          (Array.to_list
             (Array.map (fun sh -> (sh.sh_id, Cluster.tracer sh.c)) shards))
    | _ -> Trace.disabled
  in
  { outputs;
    handoffs;
    ring_pushed;
    ring_popped;
    ring_batch_fill_mean = (if handoffs > 0 then 1. else 0.);
    parks = sum (fun sh -> Workers.parks sh.w);
    domains;
    wall_ns;
    dead_letters = sum (fun sh -> Cluster.dead_letters sh.c);
    suspected =
      List.concat_map
        (fun (sh : shard) -> Cluster.suspected_failures sh.c)
        (Array.to_list shards);
    node_weights;
    clean;
    timed_out;
    trace;
    shard_stats;
    sites }
