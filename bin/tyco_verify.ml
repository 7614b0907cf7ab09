(* tyco_verify — may-testing equivalence checking of DiTyCO programs
   over the exhaustive reduction relation (the paper's "provably
   correct" claim made executable).

   With one file: print all calculus-admissible outcomes (and whether
   the program is scheduling-deterministic).  With two files: decide
   may-testing equivalence.  A dynamic error the search reaches prints
   one line naming the file and exits 1. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  try
    let prog = Dityco.Api.parse ~file:path (read_file path) in
    ignore (Dityco.Api.typecheck prog);
    prog
  with
  | Dityco.Api.Error e ->
      Format.eprintf "%s: %s@." path (Dityco.Api.error_message e);
      exit 1
  | Sys_error m ->
      Format.eprintf "error: %s@." m;
      exit 1

(* Every admissible outcome of one file's program.  A dynamic error the
   search reaches, or a search past the bound, ends the run. *)
let outcomes max_states path prog =
  match Tyco_calculus.Equiv.outcomes ~max_states prog with
  | os -> os
  | exception Tyco_calculus.Network.Stuck m ->
      Format.eprintf "%s: %s@." path
        (Dityco.Api.error_message (Dityco.Api.Runtime_error m));
      exit 1
  | exception Tyco_calculus.Equiv.Search_exhausted n ->
      Format.eprintf "state space exceeds %d states; raise --max-states@." n;
      exit 2

let print_outcomes os =
  List.iter
    (fun o -> Format.printf "  %a@." Tyco_calculus.Equiv.pp_outcome o)
    os

let run file1 file2 max_states =
  let p1 = load file1 in
  match file2 with
  | None ->
      let os = outcomes max_states file1 p1 in
      Format.printf "%d admissible outcome(s):@." (List.length os);
      print_outcomes os;
      Format.printf "scheduling-deterministic: %b@." (List.length os <= 1)
  | Some f2 ->
      let p2 = load f2 in
      let o1 = outcomes max_states file1 p1 in
      let o2 = outcomes max_states f2 p2 in
      if o1 = o2 then
        Format.printf "EQUIVALENT (may-testing, up to %d states)@." max_states
      else begin
        Format.printf "NOT equivalent@.";
        Format.printf "%s outcomes:@." file1;
        print_outcomes o1;
        Format.printf "%s outcomes:@." f2;
        print_outcomes o2;
        exit 1
      end

let file1 =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE1"
       ~doc:"First program.")

let file2 =
  Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE2"
       ~doc:"Second program (omit to just enumerate FILE1's outcomes).")

let max_states =
  Arg.(value & opt int 50_000 & info [ "max-states" ] ~docv:"N"
       ~doc:"State-space exploration bound.")

let cmd =
  Cmd.v
    (Cmd.info "tyco_verify" ~version:"1.0"
       ~doc:"May-testing equivalence of DiTyCO programs")
    Term.(const run $ file1 $ file2 $ max_states)

let () = exit (Cmd.eval cmd)
