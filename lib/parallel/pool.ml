type task = unit -> unit

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  all_done : Condition.t;
  queue : task Queue.t;
  mutable pending : int;  (* tasks queued or running *)
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
  size : int;
  obs : Obs.t;
  (* Per-worker task counters, registered from the orchestrator at
     [create] so the metrics registration order is deterministic; empty
     when the sink is off. *)
  task_counts : Obs.Metrics.counter array;
}

let rec worker_loop pool index =
  Mutex.lock pool.mutex;
  (* Span the wait only when the worker actually has to idle, so traces
     show real starvation rather than a haze of zero-length idles.  The
     tracer's own mutex nests strictly inside [pool.mutex] (tracer calls
     never take pool locks), so the ordering is acyclic. *)
  if Queue.is_empty pool.queue && not pool.shutting_down then begin
    Obs.begin_span pool.obs "pool/idle";
    while Queue.is_empty pool.queue && not pool.shutting_down do
      Condition.wait pool.work_available pool.mutex
    done;
    Obs.end_span pool.obs "pool/idle"
  end;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    Obs.span pool.obs "pool/task" (fun () -> try task () with _ -> ());
    if Array.length pool.task_counts > 0 then
      Obs.Metrics.inc pool.task_counts.(index);
    Mutex.lock pool.mutex;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.broadcast pool.all_done;
    Mutex.unlock pool.mutex;
    worker_loop pool index
  end

(* [domains >= 1] workers idle on a condition variable until work
   arrives.  The per-worker series of [obs] are registered here, before
   any worker runs, so registration order is deterministic. *)
let create ?(obs = Obs.noop) ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let task_counts =
    match Obs.metrics obs with
    | None -> [||]
    | Some m ->
      Array.init domains (fun i ->
          Obs.Metrics.counter m
            ~labels:[ ("worker", string_of_int i) ]
            ~help:"Tasks executed per pool worker."
            "teesec_pool_tasks_total")
  in
  let pool =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      all_done = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      shutting_down = false;
      workers = [];
      size = domains;
      obs;
      task_counts;
    }
  in
  pool.workers <-
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            Option.iter
              (fun tr ->
                Obs.Tracer.name_thread tr (Printf.sprintf "pool-worker-%d" i))
              (Obs.tracer obs);
            worker_loop pool i));
  pool

let run_all pool tasks =
  match tasks with
  | [] -> ()
  | _ ->
    Mutex.lock pool.mutex;
    if pool.shutting_down then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.run_all: pool is shut down"
    end;
    List.iter
      (fun task ->
        Queue.push task pool.queue;
        pool.pending <- pool.pending + 1)
      tasks;
    Condition.broadcast pool.work_available;
    while pool.pending > 0 do
      Condition.wait pool.all_done pool.mutex
    done;
    Mutex.unlock pool.mutex

(* Idempotent; the pool must not be used afterwards. *)
let shutdown pool =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.shutting_down <- true;
  pool.workers <- [];
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let with_pool ?obs ~domains f =
  let pool = create ?obs ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map ?chunk pool f input =
  let n = Array.length input in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Pool.map: chunk must be >= 1"
      | None -> max 1 (n / (4 * pool.size))
    in
    let results = Array.make n None in
    let rec chunks lo acc =
      if lo >= n then acc
      else
        let hi = min n (lo + chunk) in
        let task () =
          for i = lo to hi - 1 do
            results.(i) <-
              Some (try Ok (f input.(i)) with e -> Error e)
          done
        in
        chunks hi (task :: acc)
    in
    run_all pool (List.rev (chunks 0 []));
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let parmap ?obs ?chunk ~jobs f xs =
  let obs = Option.value obs ~default:Obs.noop in
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then
    (* Degenerate sequential path: same results and exceptions as
       [List.map]; with an active sink each element still gets its
       [pool/task] span (on the caller's track — no domain is spawned). *)
    if Obs.enabled obs then
      List.map (fun x -> Obs.span obs "pool/task" (fun () -> f x)) xs
    else List.map f xs
  else
    with_pool ~obs ~domains:(min jobs n) (fun pool ->
        Array.to_list (map ?chunk pool f (Array.of_list xs)))

let default_jobs () = Domain.recommended_domain_count ()
