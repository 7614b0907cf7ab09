(* tycosh — the cluster shell (the paper's TyCOsh): submit a network
   program to a simulated DiTyCO cluster, choose the cluster shape and
   link models, inspect per-site statistics and traffic. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let topology_of_string = function
  | "myrinet" -> Tyco_net.Simnet.default_topology
  | "ethernet" ->
      { Tyco_net.Simnet.default_topology with
        cluster = Tyco_net.Latency.fast_ethernet }
  | "local" ->
      { Tyco_net.Simnet.default_topology with
        cluster = Tyco_net.Latency.shared_memory }
  | s -> failwith (Printf.sprintf "unknown topology %S" s)

(* The interactive shell (the paper's TyCOsh proper): programs are
   submitted to a persistent simulated cluster.  Input is accumulated
   until a line with a single ".", then parsed, type-checked and
   loaded; the simulation then runs to quiescence and reports new
   outputs.  Commands:
     :load FILE   submit a program from a file
     :stats       per-site statistics
     :trace       packet log of the whole session
     :time        current virtual time
     :quit        leave                                                *)
let interactive config =
  let cluster = Dityco.Cluster.create ~config () in
  let shown = ref 0 in
  let submit src =
    match
      let prog = Dityco.Api.parse src in
      (* isolated per-site checking: imports may refer to programs
         submitted earlier in the session, so they are validated
         dynamically when their lookups resolve *)
      Dityco.Api.load_isolated cluster prog;
      Dityco.Cluster.run cluster
    with
    | () ->
        let outs = Dityco.Cluster.outputs cluster in
        let fresh = List.filteri (fun i _ -> i >= !shown) outs in
        shown := List.length outs;
        List.iter
          (fun (ts, e) ->
            Format.printf "[%9dns] %a@." ts Dityco.Output.pp_event e)
          fresh;
        Format.printf "-- ok, virtual time %dns@."
          (Dityco.Cluster.virtual_time cluster)
    | exception Dityco.Api.Error e ->
        Format.printf "error: %s@." (Dityco.Api.error_message e)
    | exception Invalid_argument m -> Format.printf "error: %s@." m
  in
  Format.printf
    "tycosh interactive — end a program with a lone '.', :help for help@.";
  let buf = Buffer.create 256 in
  let rec loop () =
    Format.printf (if Buffer.length buf = 0 then "tycosh> " else "......> ");
    Format.print_flush ();
    match input_line stdin with
    | exception End_of_file -> ()
    | ":quit" | ":q" -> ()
    | ":help" ->
        Format.printf
          ":load FILE | :stats | :trace | :time | :quit — or type a program, \
           end with '.'@.";
        loop ()
    | ":time" ->
        Format.printf "%dns@." (Dityco.Cluster.virtual_time cluster);
        loop ()
    | ":stats" ->
        List.iter
          (fun site ->
            Format.printf "== site %s ==@." (Dityco.Site.name site);
            Format.printf "%a" Tyco_support.Stats.pp (Dityco.Site.stats site))
          (Dityco.Cluster.sites cluster);
        loop ()
    | ":trace" ->
        List.iter
          (fun (ts, p) -> Format.printf "[%9dns] %a@." ts Tyco_net.Packet.pp p)
          (Dityco.Cluster.packet_trace cluster);
        loop ()
    | line when String.length line > 5 && String.sub line 0 5 = ":load" ->
        let file = String.trim (String.sub line 5 (String.length line - 5)) in
        (try submit (read_file file)
         with Sys_error m -> Format.printf "error: %s@." m);
        loop ()
    | "." ->
        let src = Buffer.contents buf in
        Buffer.clear buf;
        if String.trim src <> "" then submit src;
        loop ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        loop ()
  in
  loop ()

(* --metrics-out FILE, for every engine: a .prom suffix means one
   Prometheus text exposition of the run's registry; anything else
   means JSONL whose last line (kind "final") is the registry, after
   the snapshot lines a --domains N run streams into [oc] while it
   runs. *)
let write_metrics ?oc ?(extra = []) ~quiet path mx =
  if Filename.check_suffix path ".prom" then
    write_file path (Tyco_support.Metrics.to_prom mx)
  else begin
    let line =
      Tyco_support.Metrics.to_json ~extra:(("kind", "\"final\"") :: extra) mx
      ^ "\n"
    in
    match oc with
    | Some oc -> output_string oc line
    | None -> write_file path line
  end;
  if not quiet then Format.printf "-- metrics written to %s@." path

let jint_array a =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

let snapshot_json (s : Dityco.Par_runner.snapshot) =
  Printf.sprintf
    "{\"kind\":\"snapshot\",\"wall_ms\":%.1f,\"work\":%d,\
     \"executed\":%s,\"ring_pushed\":%d,\"ring_popped\":%d,\
     \"migrations\":%d}"
    s.Dityco.Par_runner.sn_wall_ms s.Dityco.Par_runner.sn_work
    (jint_array s.Dityco.Par_runner.sn_executed)
    s.Dityco.Par_runner.sn_ring_pushed s.Dityco.Par_runner.sn_ring_popped
    s.Dityco.Par_runner.sn_migrations

let write_trace_file out tr =
  (* .json → Chrome trace-event form for Perfetto; anything else →
     the binary archive that [tyco-trace] analyzes *)
  write_file out
    (if Filename.check_suffix out ".json" then
       Tyco_support.Trace.to_chrome_json tr
     else Tyco_support.Trace.serialize tr)

(* --placement VALUE: the node-to-shard map for --domains N > 1. *)
let policy_of_string s =
  match s with
  | "mod" -> Dityco.Placement.Mod
  | "greedy" -> Dityco.Placement.Greedy
  | _ ->
      failwith
        (Printf.sprintf "unknown placement %S (expected mod or greedy)" s)

(* --rebalance KEY:VAL[,KEY:VAL]: dynamic node migration between
   domains.  Keys: interval (wall ms between coordinator load
   observations, default 50) and threshold (the max-over-mean
   shard-load trigger, default 1.5). *)
let rebalance_of_string s =
  let rb =
    ref { Dityco.Par_runner.rb_interval_ms = 50; rb_threshold = 1.5 }
  in
  List.iter
    (fun part ->
      let part = String.trim part in
      if part <> "" then
        match String.index_opt part ':' with
        | None ->
            failwith
              (Printf.sprintf
                 "bad --rebalance item %S (expected interval:MS or \
                  threshold:R)"
                 part)
        | Some i -> (
            let key = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            match key with
            | "interval" -> (
                match int_of_string_opt v with
                | Some ms when ms > 0 ->
                    rb := { !rb with Dityco.Par_runner.rb_interval_ms = ms }
                | _ ->
                    failwith
                      (Printf.sprintf
                         "bad --rebalance interval %S (want a positive \
                          integer of milliseconds)"
                         v))
            | "threshold" -> (
                match float_of_string_opt v with
                | Some t when t >= 1.0 ->
                    rb := { !rb with Dityco.Par_runner.rb_threshold = t }
                | _ ->
                    failwith
                      (Printf.sprintf
                         "bad --rebalance threshold %S (want a float >= 1.0)"
                         v))
            | _ ->
                failwith
                  (Printf.sprintf
                     "unknown --rebalance key %S (expected interval or \
                      threshold)"
                     key)))
    (String.split_on_char ',' s);
  !rb

(* The text summary line of a run. *)
let summary (rep : Dityco.Report.t) =
  let traffic = Printf.sprintf "%d packets, %d bytes" rep.packets rep.bytes in
  let clock =
    Printf.sprintf "virtual time %dns, %d sim events, %s" rep.virtual_ns
      rep.sim_events traffic
  in
  let parked parks ns timed_out =
    Printf.sprintf "%d parks, %.1f ms wall%s" parks (float_of_int ns /. 1e6)
      (if timed_out then " (TIMED OUT)" else "")
  in
  match rep.engine with
  | Deterministic -> clock
  | Parallel r ->
      Printf.sprintf "%d domains: %s, %d ring handoffs, %s" r.domains clock
        r.handoffs (parked r.parks r.wall_ns r.timed_out)
  | Tcp r ->
      Printf.sprintf "real TCP loopback, %d nodes: %s, %s" r.nodes traffic
        (parked r.parks r.wall_ns r.timed_out)

(* Every engine's run ends here: its trace file, its metrics file (the
   report's registry; a parallel run's final line also carries its wall
   time), then the report as JSON or as text.  TCP has no virtual
   clock, so its outputs print without timestamps. *)
let print_run ~json ~trace_out ~metrics_out ?oc (rep : Dityco.Report.t) tr =
  let open Dityco in
  Option.iter
    (fun out ->
      write_trace_file out tr;
      if not json then Format.printf "-- trace written to %s@." out)
    trace_out;
  let extra =
    match rep.engine with
    | Parallel r ->
        [ ("wall_ms", Printf.sprintf "%.1f" (float_of_int r.wall_ns /. 1e6)) ]
    | Deterministic | Tcp _ -> []
  in
  Option.iter
    (fun out -> write_metrics ?oc ~extra ~quiet:json out rep.stats)
    metrics_out;
  if json then print_endline (Report.to_json rep)
  else begin
    List.iter
      (fun (ts, e) ->
        match rep.engine with
        | Tcp _ -> Format.printf "%a@." Output.pp_event e
        | _ -> Format.printf "[%9dns] %a@." ts Output.pp_event e)
      rep.outputs;
    Format.printf "-- %s@." (summary rep)
  end

let run path nodes cores quantum topo until verbose seed replicated_ns trace trace_out metrics_out interactive_mode tcp domains placement rebalance json =
  (* Counts below one are usage errors, reported before any run starts
     as one line on stderr with exit 2, like a bad --placement. *)
  List.iter
    (fun (flag, v) ->
      if v < 1 then begin
        Format.eprintf "tycosh: %s must be at least 1 (got %d)@." flag v;
        exit 2
      end)
    [ ("--nodes", nodes); ("--cores", cores); ("--quantum", quantum);
      ("--domains", domains) ];
  (* A flag is accepted only where the chosen engine reads it: any
     other is a usage error, reported before a socket opens or a
     domain starts rather than silently ignored. *)
  let unsupported engine flags =
    match
      List.filter_map (fun (given, flag) -> if given then Some flag else None) flags
    with
    | [] -> ()
    | flags ->
        Format.eprintf "tycosh: %s does not support %s@." engine
          (String.concat ", " flags);
        exit 2
  in
  (* read only by the one-shard deterministic run *)
  let deterministic_only =
    [ (trace, "--trace"); (until <> None, "--until"); (verbose, "--verbose") ]
  in
  if tcp then
    unsupported "--tcp"
      ([ (trace_out <> None, "--trace-out"); (domains > 1, "--domains");
         (placement <> None, "--placement");
         (rebalance <> None, "--rebalance");
         (replicated_ns, "--replicated-ns") ]
      @ deterministic_only)
  else if domains > 1 then unsupported "--domains N > 1" deterministic_only
  else
    unsupported "--domains 1"
      [ (placement <> None, "--placement"); (rebalance <> None, "--rebalance") ];
  (* Parse the sharding knobs up front: a typo in --placement or
     --rebalance is a usage error, not a runtime one — one line on
     stderr and exit 2, no backtrace. *)
  let policy, rebalance =
    if domains > 1 then
      try
        ( policy_of_string (Option.value placement ~default:"mod"),
          Option.map rebalance_of_string rebalance )
      with Failure m ->
        Format.eprintf "tycosh: %s@." m;
        exit 2
    else (Dityco.Placement.Mod, None)
  in
  try
    let config =
      { Dityco.Cluster.default_config with
        Dityco.Cluster.nodes;
        cores_per_node = cores;
        quantum;
        topology = topology_of_string topo;
        seed;
        tracing = trace_out <> None;
        ns_mode =
          (if replicated_ns then Dityco.Cluster.Replicated
           else Dityco.Cluster.Centralized) }
    in
    if interactive_mode then (interactive config; exit 0);
    let prog = Dityco.Api.parse ~file:path (read_file path) in
    (* a --domains N run streams coordinator snapshots into its JSONL
       metrics file while it runs; the final line follows them *)
    let oc =
      match metrics_out with
      | Some p when domains > 1 && not (Filename.check_suffix p ".prom") ->
          Some (open_out_bin p)
      | _ -> None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter close_out_noerr oc)
      (fun () ->
        let print = print_run ~json ~trace_out ~metrics_out ?oc in
        if tcp then
          let r = Dityco.Tcp_runner.run_program ~nodes ~metrics:true prog in
          print (Dityco.Report.of_tcp r) Tyco_support.Trace.disabled
        else if domains > 1 then
          let on_snapshot =
            Option.map
              (fun oc s ->
                output_string oc (snapshot_json s ^ "\n");
                flush oc)
              oc
          in
          let r =
            Dityco.Api.run_parallel ~config ~policy ~domains ?rebalance
              ?on_snapshot prog
          in
          print (Dityco.Report.of_parallel r) r.Dityco.Par_runner.trace
        else begin
          let r = Dityco.Api.run_program ~config ?until prog in
          let c = r.Dityco.Api.cluster in
          print (Dityco.Report.of_cluster c) (Dityco.Cluster.tracer c);
          if trace && not json then
            List.iter
              (fun (ts, p) ->
                Format.printf "[%9dns] %a@." ts Tyco_net.Packet.pp p)
              (Dityco.Cluster.packet_trace c);
          if verbose && not json then
            List.iter
              (fun site ->
                Format.printf "== site %s (id %d, node %d) ==@."
                  (Dityco.Site.name site) (Dityco.Site.site_id site)
                  (Dityco.Site.ip site);
                Format.printf "%a" Tyco_support.Stats.pp (Dityco.Site.stats site))
              (Dityco.Cluster.sites c)
        end)
  with
  | Dityco.Api.Error e ->
      Format.eprintf "%s@." (Dityco.Api.error_message e);
      exit 1
  | Sys_error m | Failure m ->
      Format.eprintf "error: %s@." m;
      exit 1

let path_arg =
  Arg.(value & pos 0 string "" & info [] ~docv:"FILE"
       ~doc:"Network program (site blocks); omit with --interactive.")

let nodes =
  Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N"
       ~doc:"Cluster nodes (the paper's platform has 4).  Below 1 it is \
             a usage error (exit 2).")

let cores =
  Arg.(value & opt int 2 & info [ "cores" ] ~docv:"N"
       ~doc:"Processors per node (the paper's PCs are dual-CPU).  Below \
             1 it is a usage error (exit 2).")

let quantum =
  Arg.(value & opt int 512 & info [ "quantum" ] ~docv:"INSTRS"
       ~doc:"VM instructions per scheduling quantum.  Below 1 it is a \
             usage error (exit 2).")

let topo =
  Arg.(value & opt string "myrinet" & info [ "link" ] ~docv:"MODEL"
       ~doc:"Inter-node link model: myrinet, ethernet, or local.")

let until =
  Arg.(value & opt (some int) None & info [ "until" ] ~docv:"NS"
       ~doc:"Stop after this much virtual time.  Read only at \
             --domains 1: with --domains N > 1 or --tcp it is a usage \
             error (exit 2).")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ]
       ~doc:"Print per-site VM statistics after the run.  Read only at \
             --domains 1: with --domains N > 1 or --tcp it is a usage \
             error (exit 2).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
       ~doc:"Simulation seed (runs are deterministic per seed).")

let json_flag =
  Arg.(value & flag & info [ "json" ]
       ~doc:"Print the run report as one line of JSON instead of text.  \
             Every engine writes the same top-level keys (outputs, \
             traffic, per-site statistics, latency breakdown, memory); \
             --domains N > 1 adds a \"parallel\" section and --tcp a \
             \"tcp\" one.  Under --tcp there is no virtual clock: \
             virtual_ns, sim_events and output timestamps read 0.")

let tcp_flag =
  Arg.(value & flag & info [ "tcp" ]
       ~doc:"Run over real loopback TCP sockets (one OCaml domain per \
             node) instead of the deterministic simulation.  Takes \
             --nodes, --json and --metrics-out; --trace-out, --domains \
             N > 1, --placement, --rebalance, --replicated-ns, --trace, \
             --until and --verbose are usage errors (exit 2).")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
       ~doc:"Run the cluster sharded over N OCaml domains: each domain \
             runs the nodes --placement assigns it as a simulated \
             cluster of its own, and a frame for a node on another \
             domain travels in a batch through a lock-free SPSC ring.  \
             1 (the default) is one shard, the deterministic engine, \
             bit-identical to not passing the flag at all.  Combines \
             with --replicated-ns at any N; N > 1 refuses --until, \
             --verbose and --trace, and N below 1 is a usage error \
             (exit 2).")

let placement_arg =
  Arg.(value & opt (some string) None & info [ "placement" ] ~docv:"POLICY"
       ~doc:"Node-to-domain placement for --domains N > 1: 'mod' \
             (ip mod N, the default) or 'greedy' (bin-pack nodes onto \
             domains by site count).  Without --domains N > 1 it is a \
             usage error (exit 2).")

let rebalance_arg =
  Arg.(value & opt (some string) None & info [ "rebalance" ] ~docv:"SPEC"
       ~doc:"Dynamic rebalancing for --domains N > 1: migrate nodes \
             between domains mid-run when per-domain load skews.  SPEC \
             is KEY:VAL pairs separated by commas — 'interval:MS' \
             (wall ms between load observations, default 50) and \
             'threshold:R' (migrate when max-over-mean domain load \
             exceeds R, default 1.5).  E.g. \
             --rebalance interval:20,threshold:1.3.  Incompatible with \
             --trace-out; without --domains N > 1 it is a usage error \
             (exit 2).")

let interactive_flag =
  Arg.(value & flag & info [ "i"; "interactive" ]
       ~doc:"Start the interactive shell: submit programs to a \
             persistent simulated cluster (the paper's TyCOsh).")

let trace =
  Arg.(value & flag & info [ "trace" ]
       ~doc:"Print every packet (shipments, fetches, name service) with \
             its virtual send time.  Read only at --domains 1: with \
             --domains N > 1 or --tcp it is a usage error (exit 2).")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
       ~doc:"Record a causal trace of the run and write it to FILE: \
             Chrome trace-event JSON if FILE ends in .json (open in \
             Perfetto), else the binary archive that tyco-trace \
             analyzes.")

let metrics_out =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
       ~doc:"Write the run's counters, the registry the --json report \
             reads (transport, deliveries, dead letters, latency \
             distributions with p50/p95/p99/p999; ring traffic and parks \
             with --domains N > 1), to FILE: \
             Prometheus text if FILE ends in .prom, else JSONL — with \
             --domains N > 1, periodic coordinator snapshots followed \
             by a final merged line.")

let replicated_ns =
  Arg.(value & flag & info [ "replicated-ns" ]
       ~doc:"Use a per-node replicated name service instead of the \
             centralized one (the paper's future-work design).")

let cmd =
  Cmd.v
    (Cmd.info "tycosh" ~version:"1.0"
       ~doc:"Submit DiTyCO network programs to a simulated cluster")
    Term.(const run $ path_arg $ nodes $ cores $ quantum $ topo $ until
          $ verbose $ seed $ replicated_ns $ trace $ trace_out $ metrics_out
          $ interactive_flag $ tcp_flag $ domains_arg $ placement_arg
          $ rebalance_arg $ json_flag)

let () = exit (Cmd.eval cmd)
