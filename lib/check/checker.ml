(* The checker a run carries: any part may be absent.  Lives in its own
   module so [Config] needs a single optional field and the DSM layer
   depends only on this library's interface, not on which checks run.

   Besides the two built-in checkers (race detector, invariant oracle),
   a checker can carry generic [Hooks.t] observers and trace-attach
   callbacks; both exist so the DSM depends on no particular analyzer,
   and an analyzer the caller picks (the lint suite in [lib/lint]) can
   ride along on a run. *)

type t = {
  ck_race : Race.t option;
  ck_oracle : Oracle.t option;
  ck_hooks : Hooks.t list;
  ck_attach : (Tmk_trace.Sink.t -> unit) list;
}

(* The race detector rides first in the hook list, so it sees each event
   before the lint hooks do. *)
let create ?race ?oracle ?(hooks = []) ?(attach = []) () =
  let hooks = match race with Some r -> Race.hooks r :: hooks | None -> hooks in
  { ck_race = race; ck_oracle = oracle; ck_hooks = hooks; ck_attach = attach }

let race t = t.ck_race
let oracle t = t.ck_oracle
let hooks t = t.ck_hooks
let attach t = t.ck_attach
