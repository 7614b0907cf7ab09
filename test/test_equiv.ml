(* May-testing equivalence: the verification tool over the exhaustive
   reduction relation (Network.all_steps). *)

open Tyco_calculus
module Parser = Tyco_syntax.Parser

let check = Alcotest.check

let prog src = Parser.parse_program src

let outc src = Equiv.outcomes (prog src)

(* ------------------------------------------------------------------ *)
(* all_steps itself                                                    *)

let all_steps_empty_iff_quiescent () =
  let loaded = Interp.load (prog "new x (x![1] | x?(v) = io!printi[v])") in
  check Alcotest.bool "redexes exist" true
    (Network.all_steps loaded.Interp.net <> []);
  let net, _ = Network.run loaded.Interp.net in
  check Alcotest.bool "quiescent has none" true (Network.all_steps net = [])

let all_steps_enumerates_race () =
  (* two objects compete for one message: two distinct COMM redexes *)
  let loaded =
    Interp.load
      (prog
         {| new x (x![1] | (x?(v) = io!printi[1]) | (x?(v) = io!printi[2])) |})
  in
  let comms =
    List.filter
      (function Network.Ecomm _, _ -> true | _ -> false)
      (Network.all_steps loaded.Interp.net)
  in
  check Alcotest.int "two ways to fire" 2 (List.length comms)

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)

let deterministic_programs () =
  List.iter
    (fun src ->
      if not (Equiv.deterministic (prog src)) then
        Alcotest.failf "expected deterministic: %s" src)
    [ "io!printi[1 + 2]";
      "new x (x![7] | x?(v) = io!printi[v])";
      {| def Cell(self, v) =
           self?{ read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] }
         in new c (Cell[c, 1] | new r (c!read[r] | r?(v) = io!printi[v])) |};
      {| site a { export new p p?(v) = io!printi[v] }
         site b { import p from a in p![3] } |} ]

let racy_program_outcomes () =
  let src =
    {| new x (x![1] | (x?(v) = io!printi[1]) | (x?(v) = io!printi[2])) |}
  in
  let os = outc src in
  check Alcotest.int "two outcomes" 2 (List.length os);
  check Alcotest.bool "not deterministic" false (Equiv.deterministic (prog src))

let message_race_outcomes () =
  (* one consumer, two messages; only the first is consumed -> the
     consumer prints either 1 or 2 *)
  let src = "new x (x![1] | x![2] | x?(v) = io!printi[v])" in
  let os = outc src in
  check Alcotest.int "both orders observable" 2 (List.length os)

(* ------------------------------------------------------------------ *)
(* Equivalences                                                        *)

let equivalent_pairs () =
  List.iter
    (fun (a, b) ->
      if not (Equiv.may_equivalent (prog a) (prog b)) then
        Alcotest.failf "expected equivalent:\n%s\n-- vs --\n%s" a b)
    [ (* administrative reduction is invisible *)
      ("new x (x![5] | x?(v) = io!printi[v])", "io!printi[5]");
      (* parallel composition commutes *)
      ("io!printi[1] | io!printi[2]", "io!printi[2] | io!printi[1]");
      (* unused restriction is garbage *)
      ("new x io!printi[3]", "io!printi[3]");
      (* a class instantiation inlines *)
      ("def K(v) = io!printi[v] in K[9]", "io!printi[9]");
      (* forwarder chains collapse *)
      ( "new a, b (a![4] | (a?(v) = b![v]) | b?(v) = io!printi[v])",
        "io!printi[4]" );
      (* remote communication is invisible up to observation *)
      ( {| site a { export new p p?(v) = io!printi[v] }
           site b { import p from a in p![8] } |},
        {| site a { io!printi[8] } site b { nil } |} ) ]

let inequivalent_pairs () =
  List.iter
    (fun (a, b) ->
      if Equiv.may_equivalent (prog a) (prog b) then
        Alcotest.failf "expected inequivalent:\n%s\n-- vs --\n%s" a b)
    [ ("io!printi[1]", "io!printi[2]");
      ("io!printi[1]", "io!printi[1] | io!printi[1]");
      ("io!printi[1]", "nil");
      (* outputs at different sites are distinguished *)
      ( {| site a { io!printi[1] } site b { nil } |},
        {| site a { nil } site b { io!printi[1] } |} );
      (* a racy program differs from either of its resolutions *)
      ( "new x (x![1] | x![2] | x?(v) = io!printi[v])",
        "io!printi[1]" ) ]

let k_program =
  {| new r1, r2, t, k (
       (r1?(z) = io!printi[1])
     | (r2?(z) = io!printi[2])
     | t![r1] | t![r2]
     | (t?(x) = (k?(w) = x![0]))
     | k![0]
     ) |}

let k_less_twin =
  {| new r1, r2, t (
       (r1?(z) = io!printi[1])
     | (r2?(z) = io!printi[2])
     | t![r1] | t![r2]
     | (t?(x) = x![0])
     ) |}

(* The racy programs every engine runs: (a) two messages race for two
   receivers; (b) the [k]-program of "state key keeps object bodies";
   two sites race to send to a third, with one receiver there (c) and
   with two (d). *)
let racy_programs =
  [ ( 'a',
      {| new x (x![1] | x![2] | (x?(v) = io!printi[v]) | x?(v) = io!printi[v * 10]) |}
    );
    ('b', k_program);
    ( 'c',
      {| site a { export new x x?(v) = io!printi[v] }
         site b { import x from a in x![1] }
         site c { import x from a in x![2] } |} );
    ( 'd',
      {| site a { export new x ((x?(v) = io!printi[v]) | x?(v) = io!printi[v * 10]) }
         site b { import x from a in x![1] }
         site c { import x from a in x![2] } |} ) ]

let observed events =
  List.sort compare
    (List.map
       (fun (e : Dityco.Output.event) ->
         ( e.site,
           e.label,
           String.concat ","
             (List.map
                (function
                  | Dityco.Output.Oint n -> string_of_int n
                  | Dityco.Output.Obool b -> string_of_bool b
                  | Dityco.Output.Ostr s -> Printf.sprintf "%S" s
                  | Dityco.Output.Ochan _ -> "#chan")
                e.args) ))
       events)

(* On a racy program every engine must print an outcome the calculus
   admits: the deterministic engine at 20 seeds, fault-free and with
   [reliable] under drops, duplicates and reordering, the parallel
   engine at 2 domains and TCP at 2 nodes.  The unreliable fabric with
   drops or duplicates is left out: there a message may be lost or
   delivered twice by design. *)
let runtime_within_admissible () =
  let module Api = Dityco.Api in
  let module Cluster = Dityco.Cluster in
  let faults =
    { Tyco_net.Simnet.drop = 0.2; duplicate = 0.1; reorder = 0.3;
      reorder_ns = 50_000; partitions = [] }
  in
  List.iter
    (fun (name, src) ->
      let p = prog src in
      let admissible = Equiv.outcomes p in
      let admits run events =
        let o = observed events in
        if not (List.mem o admissible) then
          Alcotest.failf "program (%c), %s: outcome %a is not admissible" name
            run Equiv.pp_outcome o
      in
      for seed = 1 to 20 do
        let config = { Cluster.default_config with Cluster.seed } in
        let outputs config =
          List.map snd (Api.run_program ~config p).Api.outputs
        in
        admits (Printf.sprintf "seed %d" seed) (outputs config);
        admits
          (Printf.sprintf "seed %d, reliable under faults" seed)
          (outputs { config with Cluster.faults; reliable = true })
      done;
      for _ = 1 to 5 do
        let r = Api.run_parallel ~domains:2 p in
        if not r.Dityco.Par_runner.clean then
          Alcotest.failf "program (%c), 2 domains: not clean" name;
        admits "2 domains" (List.map snd r.Dityco.Par_runner.outputs)
      done;
      for _ = 1 to 3 do
        let r = Dityco.Tcp_runner.run_program ~nodes:2 p in
        if r.Dityco.Tcp_runner.timed_out then
          Alcotest.failf "program (%c), TCP: timed out" name;
        admits "TCP" r.Dityco.Tcp_runner.outputs
      done)
    racy_programs

let search_bound_respected () =
  (* a program with a large interleaving space trips the bound instead
     of hanging *)
  let wide =
    String.concat " | "
      (List.init 8 (fun i -> Printf.sprintf "new x%d (x%d![%d] | x%d?(v) = io!printi[v])" i i i i))
  in
  check Alcotest.bool "raises Search_exhausted" true
    (match Equiv.outcomes ~max_states:50 (prog wide) with
    | exception Equiv.Search_exhausted _ -> true
    | _ -> false)

let inputs_respected () =
  let src = "new k (io!readi[k] | k?(v) = io!printi[v])" in
  let os = Equiv.outcomes ~inputs:[ ("main", [ 9 ]) ] (prog src) in
  check Alcotest.int "one outcome" 1 (List.length os);
  check Alcotest.bool "reads the input" true
    (match os with [ [ ("main", "printi", "9") ] ] -> true | _ -> false)

let tests =
  [ ("all_steps vs quiescence", `Quick, all_steps_empty_iff_quiescent);
    ("all_steps enumerates races", `Quick, all_steps_enumerates_race);
    ("deterministic programs", `Quick, deterministic_programs);
    ("racy outcomes", `Quick, racy_program_outcomes);
    ("message race outcomes", `Quick, message_race_outcomes);
    ("equivalent pairs", `Quick, equivalent_pairs);
    ("inequivalent pairs", `Quick, inequivalent_pairs);
    ("runtime outcome admissible", `Quick, runtime_within_admissible);
    ("search bound respected", `Quick, search_bound_respected);
    ("inputs respected", `Quick, inputs_respected) ]

(* the deterministic step is the first admissible redex: the same event
   and a successor with the same key.  In the last program an object
   waiting for a remote channel is older than a message to one; both
   ship the message first. *)
let step_in_all_steps () =
  let srcs =
    [ "new x (x![1] | x![2] | (x?(v) = io!printi[v]) | x?(v) = io!printi[v])";
      {| def K(v) = io!printi[v] in (K[1] | K[2]) |};
      {| site a { export new p p?(v) = io!printi[v] }
         site b { import p from a in p![1] } |};
      {| site a { import p from b in import q from b in
                  ((p?(v) = io!printi[v]) | q![1]) }
         site b { export new p export new q (p![2] | q?(w) = io!printi[w]) } |} ]
  in
  List.iter
    (fun src ->
      let loaded = Interp.load (prog src) in
      let rec walk net steps =
        if steps <= 200 then
          match (Network.step net, Network.all_steps net) with
          | None, [] -> ()
          | None, _ :: _ ->
              Alcotest.failf "quiescent per step but all_steps disagrees: %s"
                src
          | Some _, [] ->
              Alcotest.failf "step fires in a quiescent state: %s" src
          | Some (ev, net'), (ev0, net0) :: _ ->
              if ev <> ev0 || Network.key net' <> Network.key net0 then
                Alcotest.failf "step %a is not all_steps' first, %a: %s"
                  Network.pp_event ev Network.pp_event ev0 src;
              walk net' (steps + 1)
      in
      walk loaded.Interp.net 0)
    srcs

let tests = tests @ [ ("step ∈ all_steps", `Quick, step_in_all_steps) ]

(* structural congruence is sound for may-testing: congruent terms have
   equal outcome sets *)
let congruence_property name =
  QCheck2.Test.make ~name ~count:40
    QCheck2.Gen.(pair Test_syntax.gen_proc Test_syntax.gen_proc)
    (fun (a, b) ->
      (* build two congruent-by-construction variants: P|Q vs Q|P
         with a nil and an unused restriction thrown in *)
      let pa =
        Tyco_syntax.Ast.par (Tyco_syntax.Ast.new_ [ "unused_z" ] a) b
      in
      let pb =
        Tyco_syntax.Ast.par b (Tyco_syntax.Ast.par a Tyco_syntax.Ast.nil)
      in
      let ta = Term.of_ast (Tyco_syntax.Sugar.desugar pa) in
      let tb = Term.of_ast (Tyco_syntax.Sugar.desugar pb) in
      (* only meaningful when the terms are closed enough to load:
         wrap free names in new-binders and drop free classes *)
      if Term.free_cids ta <> [] then true
      else begin
        let close t =
          let frees =
            List.filter_map
              (function Term.Plain x when x <> "io" -> Some x | _ -> None)
              (Term.free_ids t)
          in
          if frees = [] then t else Term.New (frees, t)
        in
        let ta = close ta and tb = close tb in
        if not (Congruence.congruent ta tb) then
          QCheck2.Test.fail_reportf "constructed pair not congruent";
        let wrap t = Network.add_proc Network.empty "main" t in
        match
          ( Equiv.outcomes_of_net ~max_states:2000 (wrap ta),
            Equiv.outcomes_of_net ~max_states:2000 (wrap tb) )
        with
        | oa, ob -> oa = ob
        | exception (Equiv.Search_exhausted _ | Network.Stuck _) -> true
      end)

let congruent_implies_equivalent =
  QCheck_alcotest.to_alcotest
    (congruence_property "congruent terms are may-equivalent")

let tests = tests @ [ congruent_implies_equivalent ]

(* The seeds on which the property above used to fail: tied atoms kept
   their input order, so the two constructed terms, though congruent,
   got different normal forms. *)
let congruence_at_seed seed =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (congruence_property
       (Printf.sprintf "congruence at qcheck seed %d" seed))

let tests = tests @ List.map congruence_at_seed [ 82; 102; 137; 153; 173 ]

(* Seed 237 failed for another reason: the reference interpreter raised
   [Invalid_argument] when a generated term bound a value where the
   body uses a channel — a dynamic error, [Network.Stuck]. *)
let tests = tests @ [ congruence_at_seed 237 ]

(* The state key must render the whole state: once [t]'s object has
   taken [r1] or [r2], the two states differ only in the body of the
   object at [k] ([x![0]] with [x] bound to [r1] or [r2]).  A key that
   rendered objects by their labels would merge them and lose the
   outcome printing 2, and would then find the [k]-less twin, whose
   object sends at once, inequivalent. *)
let state_key_keeps_object_bodies () =
  check Alcotest.int "two outcomes" 2 (List.length (outc k_program));
  check Alcotest.bool "not deterministic" false
    (Equiv.deterministic (prog k_program));
  check Alcotest.bool "may-equivalent to its k-less twin" true
    (Equiv.may_equivalent (prog k_program) (prog k_less_twin))

let tests =
  tests @ [ ("state key keeps object bodies", `Quick, state_key_keeps_object_bodies) ]
