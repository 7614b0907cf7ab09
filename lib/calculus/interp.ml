module Ast = Tyco_syntax.Ast
module Loc = Tyco_syntax.Loc
module Sugar = Tyco_syntax.Sugar
module SMap = Map.Make (String)

type load_error = { msg : string }

exception Error of load_error

let fail fmt = Format.kasprintf (fun msg -> raise (Error { msg })) fmt

type loaded = {
  net : Network.t;
  exported_names : (string * string) list;
  exported_classes : (string * string) list;
}

type env = {
  site : string;
  names : Term.id SMap.t;   (* import renamings; absent = plain *)
  classes : Term.cid SMap.t;
}

let resolve_name env x =
  match SMap.find_opt x env.names with Some i -> i | None -> Term.Plain x

let resolve_class env x =
  match SMap.find_opt x env.classes with
  | Some c -> c
  | None -> Term.Cplain x

let rec resolve_expr env (e : Ast.expr) : Term.expr =
  match e.Loc.it with
  | Ast.Evar x -> Term.Eid (resolve_name env x)
  | Ast.Eint n -> Term.Elit (Term.Lint n)
  | Ast.Ebool b -> Term.Elit (Term.Lbool b)
  | Ast.Estr s -> Term.Elit (Term.Lstr s)
  | Ast.Ebin (op, a, b) ->
      Term.Ebin (op, resolve_expr env a, resolve_expr env b)
  | Ast.Eun (op, a) -> Term.Eun (op, resolve_expr env a)

let unbind_names env xs =
  { env with names = List.fold_left (fun m x -> SMap.remove x m) env.names xs }

let unbind_classes env xs =
  { env with
    classes = List.fold_left (fun m x -> SMap.remove x m) env.classes xs }

type acc = {
  mutable net : Network.t;
  mutable exp_names : (string * string) list;
  mutable exp_classes : (string * string) list;
}

(* Resolution returns a kernel term; export registrations flow through
   the accumulator because exported groups live in the network-level
   definition table, not in the process. *)
let rec resolve acc env (p : Ast.proc) : Term.proc =
  match p.Loc.it with
  | Ast.Pnil -> Term.Nil
  | Ast.Ppar (a, b) -> Term.Par (resolve acc env a, resolve acc env b)
  | Ast.Pnew (xs, q) -> Term.New (xs, resolve acc (unbind_names env xs) q)
  | Ast.Pmsg (x, l, es) ->
      Term.Msg (resolve_name env x, l, List.map (resolve_expr env) es)
  | Ast.Pobj (x, ms) ->
      Term.Obj
        ( resolve_name env x,
          List.map
            (fun (m : Ast.method_) ->
              { Term.m_label = m.m_label;
                m_params = m.m_params;
                m_body = resolve acc (unbind_names env m.m_params) m.m_body })
            ms )
  | Ast.Pinst (xc, es) ->
      Term.Inst (resolve_class env xc, List.map (resolve_expr env) es)
  | Ast.Pdef (ds, q) ->
      let group_names = List.map (fun (d : Ast.defn) -> d.d_name) ds in
      let env' = unbind_classes env group_names in
      Term.Def
        ( List.map
            (fun (d : Ast.defn) ->
              { Term.d_name = d.d_name;
                d_params = d.d_params;
                d_body = resolve acc (unbind_names env' d.d_params) d.d_body })
            ds,
          resolve acc env' q )
  | Ast.Pif (e, a, b) ->
      Term.If (resolve_expr env e, resolve acc env a, resolve acc env b)
  | Ast.Plet _ -> fail "internal: 'let' must be desugared before loading"
  | Ast.Pexport_new (xs, q) ->
      (* Exported names stay plain and public at this site; importers
         address them as [site.x]. *)
      List.iter
        (fun x -> acc.exp_names <- (env.site, x) :: acc.exp_names)
        xs;
      resolve acc (unbind_names env xs) q
  | Ast.Pexport_def (ds, q) ->
      let group_names = List.map (fun (d : Ast.defn) -> d.d_name) ds in
      let env' = unbind_classes env group_names in
      let group =
        List.map
          (fun (d : Ast.defn) ->
            { Term.d_name = d.d_name;
              d_params = d.d_params;
              d_body = resolve acc (unbind_names env' d.d_params) d.d_body })
          ds
      in
      (* the group stays a regular local [def] (so enclosing binders
         freshen into its bodies); the public registration happens when
         the decomposition reaches it *)
      acc.net <- Network.mark_exports acc.net env.site group_names;
      List.iter
        (fun x -> acc.exp_classes <- (env.site, x) :: acc.exp_classes)
        group_names;
      Term.Def (group, resolve acc env' q)
  | Ast.Pimport_name (x, s, q) ->
      resolve acc
        { env with names = SMap.add x (Term.Located (s, x)) env.names }
        q
  | Ast.Pimport_class (xc, s, q) ->
      resolve acc
        { env with classes = SMap.add xc (Term.Clocated (s, xc)) env.classes }
        q

let load ?(inputs = []) (prog : Ast.program) : loaded =
  let prog = Sugar.desugar_program prog in
  let acc = { net = Network.empty; exp_names = []; exp_classes = [] } in
  (* Two passes so that a site body can be decomposed even when it
     instantiates a class exported by a later site: registrations
     first, atom decomposition second. *)
  let resolved =
    List.map
      (fun (s : Ast.site_decl) ->
        let env =
          { site = s.s_name; names = SMap.empty; classes = SMap.empty }
        in
        (s.s_name, resolve acc env s.s_proc))
      prog.sites
  in
  let net =
    List.fold_left
      (fun net (site, term) -> Network.add_proc net site term)
      (Network.with_inputs acc.net inputs)
      resolved
  in
  { net;
    exported_names = List.rev acc.exp_names;
    exported_classes = List.rev acc.exp_classes }

let load_proc p =
  load { Ast.sites = [ { Ast.s_name = "main"; s_proc = p } ] }

let run ?max_steps ?inputs (prog : Ast.program) =
  let loaded = load ?inputs prog in
  Network.run ?max_steps loaded.net

let outputs ?max_steps ?inputs prog =
  let net, _events = run ?max_steps ?inputs prog in
  Network.outputs net
