(* Pinned timelines of the deterministic engine.

   Every other determinism test compares two runs of the same build,
   so a change that reorders events — a different scheduling order,
   one more or one fewer event, a shifted timestamp — passes them
   unnoticed.  Here the expected values are literals: each program of
   the engine-equivalence corpus and each shipped example (bar the
   perpetual seti.tyco) runs under three configurations, and its
   virtual clock, event count, transport counters, timestamped outputs
   and (when traced) serialized trace must match the recorded row
   exactly.  A deliberate timeline change re-records the table: the
   failure message prints the observed row as an OCaml literal. *)

open Dityco
module Simnet = Tyco_net.Simnet
module Trace = Tyco_support.Trace

type row = {
  virtual_ns : int;
  events : int;
  packets : int;
  bytes : int;
  frames : int;
  same_node : int;
  dead_letters : int;
  outputs_md5 : string;
  trace_md5 : string; (* "" when the run is untraced *)
}

let pp_row ppf r =
  Format.fprintf ppf
    "{ virtual_ns = %d; events = %d; packets = %d; bytes = %d; frames = %d; \
     same_node = %d; dead_letters = %d; outputs_md5 = %S; trace_md5 = %S }"
    r.virtual_ns r.events r.packets r.bytes r.frames r.same_node
    r.dead_letters r.outputs_md5 r.trace_md5

let configs =
  [ ("default", fun c -> c);
    ( "reliable-faults",
      fun c ->
        { c with
          Cluster.reliable = true;
          faults =
            { Simnet.drop = 0.1; duplicate = 0.1; reorder = 0.2;
              reorder_ns = 40_000; partitions = [] } } );
    ("traced", fun c -> { c with Cluster.tracing = true }) ]

(* (name, source, base config, placement) *)
let programs () =
  let corpus =
    List.map
      (fun (name, src) ->
        (name, src, Test_par.config, Some Test_par.placement_spread))
      Test_par.corpus
  in
  let examples =
    List.map
      (fun (f, _, src) -> (f, src, Cluster.default_config, None))
      (Samples.programs ~except:[ "seti.tyco" ] ())
  in
  corpus @ examples

let observe ~config ?placement src =
  let r = Api.run_program ~config ?placement (Api.parse src) in
  let c = r.Api.cluster in
  let outs =
    String.concat "\n"
      (List.map
         (fun (ts, e) -> Format.asprintf "%d %a" ts Output.pp_event e)
         r.Api.outputs)
  in
  { virtual_ns = r.Api.virtual_ns;
    events = Simnet.events_processed (Cluster.sim c);
    packets = Cluster.packets_sent c;
    bytes = Cluster.bytes_sent c;
    frames = Cluster.frames_sent c;
    same_node = Cluster.same_node_fast c;
    dead_letters = Cluster.dead_letters c;
    outputs_md5 = Digest.to_hex (Digest.string outs);
    trace_md5 =
      (if config.Cluster.tracing then
         Digest.to_hex (Digest.string (Trace.serialize (Cluster.tracer c)))
       else "") }

(* One row per (program, configuration). *)
let expected : ((string * string) * row) list =
  [ (("rpc", "default"),
      { virtual_ns = 44686; events = 40; packets = 12; bytes = 246; frames = 12;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "e0486e2ddba2e6003678013de0d8df15";
        trace_md5 = "" });
    (("rpc", "reliable-faults"),
      { virtual_ns = 4104729; events = 74; packets = 12; bytes = 258; frames = 16;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "8f75ca427f487525a63c9ca4a0fe29cb";
        trace_md5 = "" });
    (("rpc", "traced"),
      { virtual_ns = 44686; events = 40; packets = 12; bytes = 246; frames = 12;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "e0486e2ddba2e6003678013de0d8df15";
        trace_md5 = "4d4cc292a612234fa9eeedf437e6e668" });
    (("pipeline", "default"),
      { virtual_ns = 81582; events = 34; packets = 15; bytes = 233; frames = 9;
        same_node = 3; dead_letters = 0;
        outputs_md5 = "0bfef2e8bbac33759c12b016cb327492";
        trace_md5 = "" });
    (("pipeline", "reliable-faults"),
      { virtual_ns = 4104729; events = 64; packets = 15; bytes = 290; frames = 15;
        same_node = 3; dead_letters = 0;
        outputs_md5 = "57a0fb9dc856ab94d97c787b39333442";
        trace_md5 = "" });
    (("pipeline", "traced"),
      { virtual_ns = 81582; events = 34; packets = 15; bytes = 233; frames = 9;
        same_node = 3; dead_letters = 0;
        outputs_md5 = "0bfef2e8bbac33759c12b016cb327492";
        trace_md5 = "d44097ee837a59a4d82c0d259bdee05c" });
    (("fanout", "default"),
      { virtual_ns = 129926; events = 103; packets = 36; bytes = 717; frames = 36;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "3d98bcf3a135f0662837323e80d89480";
        trace_md5 = "" });
    (("fanout", "reliable-faults"),
      { virtual_ns = 4104729; events = 200; packets = 36; bytes = 871; frames = 47;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "807cce0bc3693bc0738aeb5a91e92219";
        trace_md5 = "" });
    (("fanout", "traced"),
      { virtual_ns = 129926; events = 103; packets = 36; bytes = 717; frames = 36;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "3d98bcf3a135f0662837323e80d89480";
        trace_md5 = "e0b9a5a2a1224066bf5ef5884a4f106a" });
    (("agent.tyco", "default"),
      { virtual_ns = 110886; events = 54; packets = 17; bytes = 469; frames = 15;
        same_node = 4; dead_letters = 0;
        outputs_md5 = "44f469bc6a07ae03b2c95d1ce7fe618d";
        trace_md5 = "" });
    (("agent.tyco", "reliable-faults"),
      { virtual_ns = 4227749; events = 102; packets = 17; bytes = 604; frames = 23;
        same_node = 4; dead_letters = 0;
        outputs_md5 = "f8b91a5911b9c7e5a017da7e7ac64cff";
        trace_md5 = "" });
    (("agent.tyco", "traced"),
      { virtual_ns = 110886; events = 54; packets = 17; bytes = 469; frames = 15;
        same_node = 4; dead_letters = 0;
        outputs_md5 = "44f469bc6a07ae03b2c95d1ce7fe618d";
        trace_md5 = "66ea71c9295d81398b6d6d993afa654d" });
    (("applet.tyco", "default"),
      { virtual_ns = 44948; events = 15; packets = 4; bytes = 115; frames = 4;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "89a25f21c70fc4411e1eafa782039998";
        trace_md5 = "" });
    (("applet.tyco", "reliable-faults"),
      { virtual_ns = 4134976; events = 25; packets = 4; bytes = 118; frames = 5;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "1b8c8415b829a931923e568e07efc84d";
        trace_md5 = "" });
    (("applet.tyco", "traced"),
      { virtual_ns = 44948; events = 15; packets = 4; bytes = 115; frames = 4;
        same_node = 1; dead_letters = 0;
        outputs_md5 = "89a25f21c70fc4411e1eafa782039998";
        trace_md5 = "6d46780ea296fb69bad30b3bd13af977" });
    (("cell.tyco", "default"),
      { virtual_ns = 627; events = 1; packets = 0; bytes = 0; frames = 0;
        same_node = 0; dead_letters = 0;
        outputs_md5 = "378dde127fe7ff4f1dff0b0c365eb0f2";
        trace_md5 = "" });
    (("cell.tyco", "reliable-faults"),
      { virtual_ns = 627; events = 1; packets = 0; bytes = 0; frames = 0;
        same_node = 0; dead_letters = 0;
        outputs_md5 = "378dde127fe7ff4f1dff0b0c365eb0f2";
        trace_md5 = "" });
    (("cell.tyco", "traced"),
      { virtual_ns = 627; events = 1; packets = 0; bytes = 0; frames = 0;
        same_node = 0; dead_letters = 0;
        outputs_md5 = "378dde127fe7ff4f1dff0b0c365eb0f2";
        trace_md5 = "7dc1865ec665ccf4943b90243ca3f70d" });
    (("rpc.tyco", "default"),
      { virtual_ns = 34370; events = 14; packets = 3; bytes = 57; frames = 3;
        same_node = 2; dead_letters = 0;
        outputs_md5 = "ceb31ea3fcc012961344adea88a47a4c";
        trace_md5 = "" });
    (("rpc.tyco", "reliable-faults"),
      { virtual_ns = 4104729; events = 22; packets = 3; bytes = 60; frames = 4;
        same_node = 2; dead_letters = 0;
        outputs_md5 = "ceb31ea3fcc012961344adea88a47a4c";
        trace_md5 = "" });
    (("rpc.tyco", "traced"),
      { virtual_ns = 34370; events = 14; packets = 3; bytes = 57; frames = 3;
        same_node = 2; dead_letters = 0;
        outputs_md5 = "ceb31ea3fcc012961344adea88a47a4c";
        trace_md5 = "90602c21536e2aecf1f42c718cbb5c5b" }) ]

let pinned_timelines () =
  let diffs =
    List.concat_map
      (fun (name, src, base, placement) ->
        List.filter_map
          (fun (cname, tweak) ->
            let got = observe ~config:(tweak base) ?placement src in
            match List.assoc_opt (name, cname) expected with
            | Some want when want = got -> None
            | want ->
                Some
                  (Format.asprintf "%s((%S, %S),@.   %a);"
                     (match want with
                     | Some w -> Format.asprintf "(* want %a *)@." pp_row w
                     | None -> "")
                     name cname pp_row got))
          configs)
      (programs ())
  in
  if diffs <> [] then
    Alcotest.failf "%d timeline(s) differ from the pinned rows; observed:@.%s"
      (List.length diffs) (String.concat "\n" diffs)

let tests = [ ("pinned deterministic timelines", `Quick, pinned_timelines) ]
