(* In-memory span recorder for the traced run.

   The benchmark opens a span around each call it makes into a layer
   (parse, bind, plan, execute, digest, ...); spans of one request share
   the request id and point at the span that caused them.  Nothing is
   written until the run ends, so recording costs two clock reads and a
   few list cells per span. *)

type span = {
  id : int;
  name : string;
  req : int;  (** Request id; [-1] for work outside any request. *)
  parent : int;  (** Id of the enclosing span; [-1] for a root. *)
  start_ns : int;
  mutable end_ns : int;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : span list }

let create () = { spans = []; next = 0; stack = [] }

let with_span t ?(req = -1) name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let req = match (t.stack, req) with s :: _, -1 -> s.req | _ -> req in
  let s = { id = t.next; name; req; parent; start_ns = Dqo_util.Clock.now_ns (); end_ns = 0 } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.end_ns <- Dqo_util.Clock.now_ns ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans)
    f

(* Spans in the order they were opened. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans
let duration_ns s = s.end_ns - s.start_ns

(* Self time: the span's duration minus what its children cover.  The
   client is single-threaded, so children never overlap and their
   durations simply add up. *)
let self_times t =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration_ns s + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    t.spans;
  List.map
    (fun s -> (s, duration_ns s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)))
    (spans t)

(* Durations (ms) of every span with this name, in recording order. *)
let durations_ms t name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (Float.of_int (duration_ns s) /. 1e6) else None)
    (spans t)

(* One JSON object per line, in opening order: id, name, request,
   parent, start/end (ns, relative to the first span) and self time. *)
let write t path =
  let origin = match spans t with s :: _ -> s.start_ns | [] -> 0 in
  let oc = open_out path in
  List.iter
    (fun (s, self_ns) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
        s.id s.name s.req s.parent (s.start_ns - origin) (s.end_ns - origin) self_ns)
    (self_times t);
  close_out oc
