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

let runtime_within_admissible () =
  (* on a racy program the deterministic runtime must still produce one
     of the calculus-admissible outcomes *)
  let src =
    {| new x (x![1] | x![2] | (x?(v) = io!printi[v]) | x?(v) = io!printi[v * 10]) |}
  in
  let p = prog src in
  let r = Dityco.Api.run_program p in
  let observed =
    List.map
      (fun (_, e) ->
        ( e.Dityco.Output.site,
          e.Dityco.Output.label,
          String.concat ","
            (List.map
               (function
                 | Dityco.Output.Oint n -> string_of_int n
                 | Dityco.Output.Obool b -> string_of_bool b
                 | Dityco.Output.Ostr s -> Printf.sprintf "%S" s
                 | Dityco.Output.Ochan _ -> "#chan")
               e.Dityco.Output.args) ))
      r.Dityco.Api.outputs
  in
  check Alcotest.bool "runtime outcome admissible" true
    (Equiv.runtime_outcome_admissible p observed)

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

(* the deterministic step is always one of the admissible redexes *)
let step_in_all_steps () =
  let srcs =
    [ "new x (x![1] | x![2] | (x?(v) = io!printi[v]) | x?(v) = io!printi[v])";
      {| def K(v) = io!printi[v] in (K[1] | K[2]) |};
      {| site a { export new p p?(v) = io!printi[v] }
         site b { import p from a in p![1] } |} ]
  in
  List.iter
    (fun src ->
      let loaded = Interp.load (prog src) in
      let rec walk net steps =
        if steps > 200 then ()
        else
          match Network.step net with
          | None ->
              if Network.all_steps net <> [] then
                Alcotest.failf "quiescent per step but all_steps disagrees: %s"
                  src
          | Some (ev, _) ->
              let evs = List.map fst (Network.all_steps net) in
              if not (List.mem ev evs) then
                Alcotest.failf "deterministic step not admissible: %s" src;
              (match Network.step net with
              | Some (_, net') -> walk net' (steps + 1)
              | None -> ())
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

let state_key_keeps_object_bodies () =
  check Alcotest.int "two outcomes" 2 (List.length (outc k_program));
  check Alcotest.bool "not deterministic" false
    (Equiv.deterministic (prog k_program));
  check Alcotest.bool "may-equivalent to its k-less twin" true
    (Equiv.may_equivalent (prog k_program) (prog k_less_twin))

let tests =
  tests @ [ ("state key keeps object bodies", `Quick, state_key_keeps_object_bodies) ]
