(* Real-fork worker integration test, isolated in its own executable.

   OCaml 5 forbids Unix.fork once any other domain has been spawned, and the
   shared test binary runs multi-domain engine suites first.  This binary
   never spawns a domain (Catalog.execute_request pins ~domains:1), so the
   Pool.spawn forks below are legal.  It pins the acceptance criterion that a
   request completed via retry after a worker crash is bit-identical to the
   in-process engine. *)

module Request = Ids_serve.Request
module Catalog = Ids_serve.Catalog
module Pool = Ids_serve.Pool
module Server = Ids_serve.Server
module Client = Ids_serve.Client
module Supervisor = Ids_serve.Supervisor
module Fault = Ids_network.Fault

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let wait_readable fd =
  match Unix.select [ fd ] [] [] 30. with
  | [], _, _ -> Alcotest.fail "worker response timed out"
  | _ -> ()

let read_response w =
  let rec go () =
    wait_readable (Pool.read_fd w);
    match Pool.read w with
    | `Lines (line :: _) -> `Line line
    | `Lines [] -> go ()
    | `Eof -> `Eof
  in
  go ()

let test_forked_worker_retry_bit_identical () =
  let protocol = "sym_dmam" and strategy = "honest" and trials = 5 in
  let req =
    Request.make_estimate ~kill_attempt:1 ~id:"it1" ~protocol ~strategy ~trials ()
  in
  (* Attempt 1: the worker self-kills before computing. *)
  let w1 = Pool.spawn ~wid:0 () in
  checkb "attempt 1 sent" true (Pool.send w1 ~attempt:1 req);
  (match read_response w1 with
  | `Eof -> ()
  | `Line l -> Alcotest.failf "worker survived its forced kill: %s" l);
  ignore (Unix.waitpid [] (Pool.pid w1));
  Pool.shutdown w1;
  (* Attempt 2 on a fresh worker: kill_attempt=1 no longer fires. *)
  let w2 = Pool.spawn ~wid:0 () in
  checkb "attempt 2 sent" true (Pool.send w2 ~attempt:2 req);
  let line =
    match read_response w2 with
    | `Line l -> l
    | `Eof -> Alcotest.fail "worker died on the retry"
  in
  Pool.shutdown w2;
  ignore (Unix.waitpid [] (Pool.pid w2));
  (match Request.response_of_line line with
  | Ok (Request.Estimated { id = "it1"; attempts = 2; record; _ }) ->
    let want =
      match Catalog.execute_request ~protocol ~strategy ~trials ~fault:Fault.none with
      | Ok r -> r
      | Error e -> Alcotest.failf "in-process oracle failed: %s" e
    in
    check Alcotest.string "retried result bit-identical to the in-process engine" want record
  | Ok _ -> Alcotest.fail "unexpected response shape"
  | Error e -> Alcotest.failf "bad response line: %s" e)

(* The torn-frame drill at the pool layer (the E20 chaos-during-framing
   satellite): a worker killed mid-response-write must leave only a partial
   line behind — which the reader discards wholesale at EOF — and the retry
   on a fresh worker must produce a byte-identical record with a complete,
   parseable telemetry frame.  The lost first-attempt delta surfaces as a
   counted gap (the dead incarnation's frames never arrive), never as a
   parse error. *)
let test_torn_frame_lost_delta_clean_retry () =
  let protocol = "sym_dmam" and strategy = "honest" and trials = 4 in
  let req =
    Request.make_estimate ~torn_attempt:1 ~trace:("tr-torn", 3) ~id:"torn1" ~protocol ~strategy
      ~trials ()
  in
  let w1 = Pool.spawn ~telemetry:true ~wid:0 () in
  checkb "attempt 1 sent" true (Pool.send w1 ~attempt:1 req);
  (* The worker writes roughly half the line and SIGKILLs itself: the pipe
     EOFs with a partial line buffered, and `read` must not surface it as a
     parseable line. *)
  let rec drain_to_eof salvaged =
    wait_readable (Pool.read_fd w1);
    match Pool.read w1 with
    | `Lines ls -> drain_to_eof (salvaged @ ls)
    | `Eof -> salvaged
  in
  let salvaged = drain_to_eof [] in
  checkb "no complete line salvaged from the torn write" true (salvaged = []);
  ignore (Unix.waitpid [] (Pool.pid w1));
  Pool.shutdown w1;
  (* Retry on a fresh worker: full line, complete frame, fresh chain. *)
  let w2 = Pool.spawn ~telemetry:true ~wid:0 () in
  checkb "attempt 2 sent" true (Pool.send w2 ~attempt:2 req);
  let line =
    match read_response w2 with
    | `Line l -> l
    | `Eof -> Alcotest.fail "worker died on the retry"
  in
  Pool.shutdown w2;
  ignore (Unix.waitpid [] (Pool.pid w2));
  match Request.response_of_line line with
  | Error e -> Alcotest.failf "retried response did not parse: %s" e
  | Ok (Request.Estimated { id = "torn1"; attempts = 2; record; telemetry = Some f }) ->
    checkb "fresh incarnation restarts the frame chain" true (f.Request.fseq = 1);
    checkb "frame echoes the request's trace context" true (f.Request.ftrace = Some ("tr-torn", 3));
    checkb "frame carries the worker.execute span" true
      (List.exists (fun (s : Ids_obs.Obs.span_record) -> s.Ids_obs.Obs.sname = "worker.execute") f.Request.fspans);
    let want =
      match Catalog.execute_request ~protocol ~strategy ~trials ~fault:Fault.none with
      | Ok r -> r
      | Error e -> Alcotest.failf "in-process oracle failed: %s" e
    in
    (* Telemetry workers embed a metrics object in the record; compare net
       of it (every other field must agree exactly). *)
    let strip r =
      match Ids_engine.Runlog.of_line r with
      | Ok rec_ -> { rec_ with Ids_engine.Runlog.metrics = None }
      | Error e -> Alcotest.failf "record does not parse: %s" e
    in
    checkb "retried record identical to the oracle net of metrics" true (strip want = strip record)
  | Ok _ -> Alcotest.fail "unexpected response shape"

(* Graceful EOF: closing the request pipe must produce a Flush frame whose
   delta carries everything not yet shipped, so the frame chain telescopes
   to the worker's full ledger even when the worker exits idle. *)
let test_graceful_eof_flush () =
  let req =
    Request.make_estimate ~id:"f1" ~protocol:"sym_dmam" ~strategy:"honest" ~trials:3 ()
  in
  let w = Pool.spawn ~telemetry:true ~wid:0 () in
  checkb "request sent" true (Pool.send w ~attempt:1 req);
  (match read_response w with
  | `Line l -> (
    match Request.response_of_line l with
    | Ok (Request.Estimated { telemetry = Some f; _ }) ->
      checkb "first frame of the incarnation" true (f.Request.fseq = 1)
    | Ok _ -> Alcotest.fail "telemetry worker shipped no frame"
    | Error e -> Alcotest.failf "bad response line: %s" e)
  | `Eof -> Alcotest.fail "worker died");
  Pool.close_writer w;
  (match read_response w with
  | `Line l -> (
    match Request.response_of_line l with
    | Ok (Request.Flush f) ->
      checkb "flush continues the frame chain" true (f.Request.fseq = 2);
      checkb "flush carries no trace context" true (f.Request.ftrace = None)
    | Ok _ -> Alcotest.fail "expected a Flush frame on EOF"
    | Error e -> Alcotest.failf "bad flush line: %s" e)
  | `Eof -> Alcotest.fail "worker exited without flushing");
  (match read_response w with
  | `Eof -> ()
  | `Line l -> Alcotest.failf "unexpected line after the flush: %s" l);
  ignore (Unix.waitpid [] (Pool.pid w));
  Pool.shutdown w

(* The daemon bounds a client's unterminated line: a client that streams
   more than Server.max_line bytes without a newline is answered
   bad_request and disconnected, and the daemon keeps serving the other
   clients byte-for-byte. *)
let test_daemon_line_cap () =
  let socket = Printf.sprintf "ids_fork_test_%d.sock" (Unix.getpid ()) in
  let cfg =
    { Server.default with
      Server.socket;
      log_path = "";
      sup = { Supervisor.default with Supervisor.workers = 1 }
    }
  in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 -> (
      match Server.run cfg with
      | Ok () -> Unix._exit 0
      | Error e ->
        prerr_endline ("daemon: " ^ e);
        Unix._exit 1)
    | pid -> pid
  in
  let stop () =
    Unix.kill pid Sys.sigterm;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly");
    if Sys.file_exists socket then Sys.remove socket
  in
  let client =
    match Client.connect ~wait:10. socket with
    | Ok c -> c
    | Error e ->
      stop ();
      Alcotest.failf "connect: %s" e
  in
  let flooder = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect flooder (Unix.ADDR_UNIX socket);
  let flood = Bytes.make (Server.max_line + 1) 'x' in
  checkb "whole over-cap line written" true (Unix.write flooder flood 0 (Bytes.length flood) = Bytes.length flood);
  let ic = Unix.in_channel_of_descr flooder in
  (* Bounded wait: a daemon without the cap would never answer. *)
  let answered = match Unix.select [ flooder ] [] [] 10. with [], _, _ -> false | _ -> true in
  let reply = if answered then try Some (input_line ic) with End_of_file -> None else None in
  let closed = answered && match input_line ic with _ -> false | exception End_of_file -> true in
  close_in ic;
  let req = Request.make_estimate ~id:"cap1" ~protocol:"sym_dmam" ~strategy:"honest" ~trials:3 () in
  let answer = Client.request client req in
  Client.close client;
  stop ();
  (match Option.map Request.response_of_line reply with
  | Some (Ok (Request.Rejected { reject = Request.Bad_request _; _ })) -> ()
  | Some (Ok _) -> Alcotest.fail "over-cap line not answered bad_request"
  | Some (Error e) -> Alcotest.failf "bad reply line: %s" e
  | None -> Alcotest.fail "over-cap client got no reply");
  checkb "over-cap client disconnected" true closed;
  match answer with
  | Ok (Request.Estimated { id = "cap1"; record; _ }) ->
    let want =
      match Catalog.execute_request ~protocol:"sym_dmam" ~strategy:"honest" ~trials:3 ~fault:Fault.none with
      | Ok r -> r
      | Error e -> Alcotest.failf "in-process oracle failed: %s" e
    in
    check Alcotest.string "other client's estimate byte-equal to the in-process engine" want record
  | Ok _ -> Alcotest.fail "unexpected response shape"
  | Error e -> Alcotest.failf "estimate failed: %s" e

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "ids-serve-fork"
    [ ( "serve-fork",
        [ Alcotest.test_case "forked worker: retried result bit-identical" `Quick
            test_forked_worker_retry_bit_identical;
          Alcotest.test_case "torn frame: counted gap, clean retry" `Quick
            test_torn_frame_lost_delta_clean_retry;
          Alcotest.test_case "graceful EOF ships a Flush frame" `Quick test_graceful_eof_flush;
          Alcotest.test_case "daemon: over-cap line rejected, others served" `Quick test_daemon_line_cap
        ] )
    ]
