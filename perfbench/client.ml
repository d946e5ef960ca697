(* The closed-loop client: one request at a time, the next sent only
   after the previous result (and its digest) is back. *)

module Engine = Dqo_engine.Engine
module Server = Dqo_serve.Server
module Wire = Dqo_serve.Wire
module Clock = Dqo_util.Clock
open Workload

type outcome = {
  o_cls : string;
  o_sql : string;
  ms : float;  (** Prepare (cache lookup or miss) + execute + digest. *)
  digest : (string, string) result;  (** The result digest, or the exception. *)
}

type tick = { tick_ms : float; report : Dqo_advisor.Advisor.tick_report option }

type phase = {
  outcomes : outcome array;
  traced : outcome array;  (** Recorded copies of [outcomes] (traced phases only). *)
  ticks : tick list;
  wall_s : float;
  cpu_s : float;  (** Process user + system CPU over the phase. *)
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Median of a sample list; 0 for no sample (a layer the run never
   reached). *)
let median = function [] -> 0.0 | xs -> Dqo_util.Stats.median (Array.of_list xs)

(* One request.  Through the server, it is prepare (a cache lookup, or a
   miss that parses, binds and plans) then execute.  With [~direct] (the
   traced ad hoc path) the work a server miss performs is issued on the
   engine as its layer calls, parse -> bind -> plan -> execute, on a
   pool the size of the server's.  [span] wraps each layer call; the
   untraced request passes [no_span]. *)
type span_fn = { span : 'a. ?req:int -> string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun ?req:_ _ f -> f ()) }
let recording spans = { span = (fun ?req name f -> Span.with_span spans ?req name f) }

let request ?direct { span } ~req env r =
  let issue () =
    span ~req "request" (fun () ->
        let rel =
          match direct with
          | Some pool ->
            let ast = span "sql.parse" (fun () -> Dqo_sql.Parser.parse r.sql) in
            let logical =
              span "sql.bind" (fun () -> Dqo_sql.Binder.bind (Engine.catalog env.engine) ast)
            in
            let entry = span "opt.plan" (fun () -> Engine.plan_on env.engine ~pool Engine.DQO logical) in
            span "exec.execute" (fun () -> Engine.execute_on env.engine ~pool entry.Dqo_opt.Pareto.plan)
          | None ->
            let stmt = span "serve.prepare" (fun () -> Server.prepare env.session r.sql) in
            span "serve.execute" (fun () -> Server.execute env.session stmt)
        in
        span "serve.digest" (fun () -> Wire.digest rel))
  in
  let digest, ms =
    Dqo_util.Timer.time_ms (fun () ->
        match issue () with d -> Ok d | exception e -> Error (Printexc.to_string e))
  in
  { o_cls = r.cls; o_sql = r.sql; ms; digest }

let advisor_tick { span } env =
  let report, tick_ms =
    Dqo_util.Timer.time_ms (fun () -> span "advisor.tick" (fun () -> Server.advisor_tick env.server))
  in
  { tick_ms; report }

(* Serve [cycles] whole schedule cycles.  [served] counts requests
   since set-up, so forced ticks keep their place in the schedule.

   With [~trace:(spans, pool)] every request is issued twice, once
   recorded into [spans] and once not, in alternating order, on the
   same path (the engine path for ad hoc traffic, the server
   otherwise): [outcomes] holds the untraced copies and [traced] the
   recorded ones, pair by pair. *)
let served = ref 0

let run_phase ?trace env ~cycles =
  let t0 = Clock.now_ns () and c0 = cpu_now () in
  let outcomes = ref [] and traced = ref [] and ticks = ref [] in
  let tick_span = match trace with Some (spans, _) -> recording spans | None -> no_span in
  for _ = 1 to cycles * env.cycle do
    if env.tick_every > 0 && !served > 0 && !served mod env.tick_every = 0 then
      ticks := advisor_tick tick_span env :: !ticks;
    let r = env.next () and req = !served in
    (match trace with
    | None -> outcomes := request no_span ~req env r :: !outcomes
    | Some (spans, pool) ->
      let direct = if env.adhoc then Some pool else None in
      let plain () = request ?direct no_span ~req env r in
      let recorded () = request ?direct (recording spans) ~req env r in
      let u, t =
        if req mod 2 = 0 then
          let u = plain () in
          (u, recorded ())
        else
          let t = recorded () in
          (plain (), t)
      in
      outcomes := u :: !outcomes;
      traced := t :: !traced);
    incr served
  done;
  {
    outcomes = Array.of_list (List.rev !outcomes);
    traced = Array.of_list (List.rev !traced);
    ticks = List.rev !ticks;
    wall_s = Float.of_int (Clock.now_ns () - t0) /. 1e9;
    cpu_s = cpu_now () -. c0;
  }
