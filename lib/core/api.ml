module Ast = Tyco_syntax.Ast
module Parser = Tyco_syntax.Parser
module Infer = Tyco_types.Infer
module Simnet = Tyco_net.Simnet

type error =
  | Parse_error of string
  | Type_error of string
  | Compile_error of string
  | Runtime_error of string

exception Error of error

let error_message = function
  | Parse_error m -> "parse error: " ^ m
  | Type_error m -> "type error: " ^ m
  | Compile_error m -> "compile error: " ^ m
  | Runtime_error m -> "runtime error: " ^ m

let parse ?file src =
  try Parser.parse_program ?file src
  with Parser.Error (msg, loc) ->
    raise
      (Error (Parse_error (Format.asprintf "%a: %s" Tyco_syntax.Loc.pp loc msg)))

let typecheck prog =
  try Infer.check_program prog
  with Infer.Error e ->
    raise (Error (Type_error (Format.asprintf "%a" Infer.pp_error e)))

let compile prog =
  try Tyco_compiler.Compile.compile_program prog
  with Tyco_compiler.Compile.Error m -> raise (Error (Compile_error m))

type result = {
  outputs : (int * Output.event) list;
  virtual_ns : int;
  sim_events : int;
  packets : int;
  bytes : int;
  cluster : Cluster.t;
}

(* Separate compilation: each site checked alone; descriptors feed
   the dynamic check at import resolution (paper §7). *)
let isolated_annotations prog =
  let infos =
    List.map
      (fun (sd : Ast.site_decl) ->
        let info =
          try Infer.check_site_isolated sd
          with Infer.Error e ->
            raise
              (Error
                 (Type_error
                    (Format.asprintf "site %s: %a" sd.Ast.s_name
                       Infer.pp_error e)))
        in
        ( sd.Ast.s_name,
          { Site.a_export_rtti =
              info.Infer.export_name_rtti @ info.Infer.export_class_rtti;
            a_import_expect =
              info.Infer.import_name_expect @ info.Infer.import_class_expect }
        ))
      (Tyco_syntax.Sugar.desugar_program prog).Ast.sites
  in
  fun name -> List.assoc_opt name infos

let load_isolated ?placement cluster prog =
  let annotations = isolated_annotations prog in
  let units = compile prog in
  try Cluster.load ?placement ~annotations cluster units
  with Invalid_argument m -> raise (Error (Runtime_error m))

let run_program ?config ?placement ?max_events ?until ?(inputs = [])
    ?(typecheck = true) ?(isolated = false) prog =
  let annotations =
    if isolated then isolated_annotations prog else fun _ -> None
  in
  if typecheck && not isolated then ignore (
    try Infer.check_program prog
    with Infer.Error e ->
      raise (Error (Type_error (Format.asprintf "%a" Infer.pp_error e))));
  let units = compile prog in
  let cluster = Cluster.create ?config () in
  let site_inputs name =
    Option.value ~default:[] (List.assoc_opt name inputs)
  in
  (try Cluster.load ?placement ~annotations ~inputs:site_inputs cluster units
   with Invalid_argument m -> raise (Error (Runtime_error m)));
  (try
     match until with
     | Some time -> Cluster.run_until cluster ~time
     | None -> Cluster.run ?max_events cluster
   with
  | Site.Protocol_error m -> raise (Error (Runtime_error m))
  | Tyco_vm.Machine.Error m -> raise (Error (Runtime_error m))
  | Failure m -> raise (Error (Runtime_error m)));
  { outputs = Cluster.outputs cluster;
    virtual_ns = Cluster.virtual_time cluster;
    sim_events = Simnet.events_processed (Cluster.sim cluster);
    packets = Cluster.packets_sent cluster;
    bytes = Cluster.bytes_sent cluster;
    cluster }

(* The --domains engine: one domain is one shard, the deterministic
   engine under [Par_runner]'s shard loop. *)
let run_parallel ?config ?placement ?policy ?max_events ?on_snapshot
    ?snapshot_every_ms ?rebalance ?force_migrations ~domains prog :
    Par_runner.result =
  ignore (typecheck prog);
  let units = compile prog in
  try
    Par_runner.run ?config ?placement ?policy ?max_events ?on_snapshot
      ?snapshot_every_ms ?rebalance ?force_migrations ~domains units
  with
  | Par_runner.Shard_failure (id, m) ->
      raise (Error (Runtime_error (Printf.sprintf "shard %d failed: %s" id m)))
  | Site.Protocol_error m -> raise (Error (Runtime_error m))
  | Tyco_vm.Machine.Error m -> raise (Error (Runtime_error m))
  | Invalid_argument m | Failure m -> raise (Error (Runtime_error m))

let run_reference ?max_steps ?inputs prog =
  try Output.of_ref_outputs (Tyco_calculus.Interp.outputs ?max_steps ?inputs prog)
  with
  | Tyco_calculus.Network.Stuck m -> raise (Error (Runtime_error m))
  | Tyco_calculus.Interp.Error e ->
      raise (Error (Runtime_error e.Tyco_calculus.Interp.msg))

let agree_with_reference ?max_steps ?(inputs = []) prog =
  let vm_outs = List.map snd (run_program ~inputs prog).outputs in
  let ref_outs = run_reference ?max_steps ~inputs prog in
  Output.same_multiset vm_outs ref_outs
