(* onebit.obs — observability layer: metrics, span tracing, unified
   execution statistics, and sink plumbing.

   The library is deliberately dependency-free (stdlib + unix) so every
   other layer — vm, core, engine, store — can instrument itself without
   cycles.  Recording never influences the instrumented computation:
   campaign results are bit-identical with collection on or off (pinned
   by test/suite_obs.ml); what collection costs is perfbench's
   trace.overhead. *)

module Metrics = Metrics
module Trace = Trace
module Snapshot = Snapshot

let enabled = Metrics.enabled
let set_enabled = Metrics.set_enabled

let render () = Metrics.render (Metrics.snapshot ())

let http_response () =
  let body = render () in
  Printf.sprintf
    "HTTP/1.1 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let write_text path text =
  match path with
  | "-" | "stderr" ->
      output_string stderr text;
      flush stderr
  | path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text)

let dump_metrics path = write_text path (render ())

let dump_trace path =
  match path with
  | "-" | "stderr" ->
      Trace.export_jsonl stderr;
      flush stderr
  | path -> Out_channel.with_open_text path Trace.export_jsonl

let sinks : (string option * string option) list ref = ref []

let install_sink ?metrics ?trace () =
  match (metrics, trace) with
  | None, None -> ()
  | _ ->
      set_enabled true;
      (match trace with Some _ -> Trace.set_enabled true | None -> ());
      if !sinks = [] then
        at_exit (fun () ->
            List.iter
              (fun (m, t) ->
                (match m with Some p -> dump_metrics p | None -> ());
                match t with Some p -> dump_trace p | None -> ())
              (List.rev !sinks));
      sinks := (metrics, trace) :: !sinks
