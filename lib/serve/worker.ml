(* The worker runs one always-active sink for its whole life: engines
   are bound to it at creation, so snapshot capture, campaign and fuzz
   spans all land in the same tracer.  This is safe for verdicts — the
   determinism boundary (test_obs) pins that payload bytes are identical
   under noop and active sinks.  After every shard the span buffer is
   drained (bounding memory on long-lived workers) and the metric
   registry snapshotted; when the shard was traced, the drained events
   and the metric delta since the previous shard ship back in W_done. *)
let loop fd =
  let obs = Obs.create () in
  let engines = Executor.create_engines ~obs () in
  let metrics =
    match Obs.metrics obs with Some m -> m | None -> assert false
  in
  let tracer = match Obs.tracer obs with Some t -> t | None -> assert false in
  let last_metrics = ref (Obs.Metrics.snapshot metrics) in
  Protocol.write_frame fd (Protocol.encode_worker_reply Protocol.W_ready);
  let rec go () =
    match Protocol.read_frame fd with
    | None -> Unix._exit 0
    | Some frame -> (
      match Protocol.decode_worker_msg frame with
      | Protocol.W_exit -> Unix._exit 0
      | Protocol.W_shard { digest; crash; job; trace; wave; work } ->
        if crash then Unix._exit 42;
        let t0 = Obs.now_ns obs in
        let payload, wave_blob =
          try
            Obs.span obs "shard"
              ~args:
                [
                  ("job", Obs.Tracer.String job);
                  ("digest", Obs.Tracer.String digest);
                  ("kind", Obs.Tracer.String (Request.kind work.Request.spec));
                ]
              (fun () -> Executor.execute ~engines ~wave work)
          with exn ->
            (* An execution failure is indistinguishable from a crash to
               the daemon (no reply, process gone), which is the right
               semantics: the shard is retried and eventually poisoned. *)
            Printf.eprintf "teesec worker %d: shard %s failed: %s\n%!"
              (Unix.getpid ()) digest (Printexc.to_string exn);
            Unix._exit 1
        in
        let events = Obs.Tracer.drain tracer in
        let snap = Obs.Metrics.snapshot metrics in
        let shard_obs =
          (* The side channel ships when either tracing or waves were
             asked for; an untraced wave shard leaves events and
             metrics empty so the daemon's trace merge sees nothing. *)
          if trace || wave then
            Some
              {
                Protocol.so_pid = Unix.getpid ();
                so_t0 = t0;
                so_events = (if trace then events else []);
                so_metrics =
                  (if trace then
                     Obs.Metrics.diff ~before:!last_metrics ~after:snap
                   else []);
                so_wave = wave_blob;
              }
          else None
        in
        last_metrics := snap;
        Protocol.write_frame fd
          (Protocol.encode_worker_reply
             (Protocol.W_done { digest; payload; obs = shard_obs }));
        Protocol.write_frame fd (Protocol.encode_worker_reply Protocol.W_ready);
        go ())
  in
  try go ()
  with _ -> Unix._exit 0
