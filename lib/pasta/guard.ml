type callback =
  | On_event
  | On_kernel_begin
  | On_kernel_end
  | On_mem_summary
  | On_device_summary
  | On_access
  | On_access_batch
  | On_kernel_profile
  | On_operator
  | On_tensor
  | Report

let all_callbacks =
  [
    On_event;
    On_kernel_begin;
    On_kernel_end;
    On_mem_summary;
    On_device_summary;
    On_access;
    On_access_batch;
    On_kernel_profile;
    On_operator;
    On_tensor;
    Report;
  ]

let callback_name = function
  | On_event -> "on_event"
  | On_kernel_begin -> "on_kernel_begin"
  | On_kernel_end -> "on_kernel_end"
  | On_mem_summary -> "on_mem_summary"
  | On_device_summary -> "on_device_summary"
  | On_access -> "on_access"
  | On_access_batch -> "on_access_batch"
  | On_kernel_profile -> "on_kernel_profile"
  | On_operator -> "on_operator"
  | On_tensor -> "on_tensor"
  | Report -> "report"

let callback_index = function
  | On_event -> 0
  | On_kernel_begin -> 1
  | On_kernel_end -> 2
  | On_mem_summary -> 3
  | On_device_summary -> 4
  | On_access -> 5
  | On_access_batch -> 6
  | On_kernel_profile -> 7
  | On_operator -> 8
  | On_tensor -> 9
  | Report -> 10

type state = Closed | Quarantined | Half_open

let state_name = function
  | Closed -> "closed"
  | Quarantined -> "quarantined"
  | Half_open -> "half-open"

type t = {
  the_tool : Tool.t;
  slot : Telemetry.tool_slot;
      (* telemetry attribution slot; resolved once so the per-callback
         path does no hashing *)
  threshold : int;
  cooldown : int;
  on_trip : failures:int -> unit;
  on_failure : callback -> unit;
  failures : int array; (* indexed by callback_index *)
  mutable window_failures : int; (* resets when the breaker closes *)
  mutable total : int;
  mutable quarantined_since : int option; (* kernel ordinal at trip *)
  mutable probing : bool;
      (* a half-open probe is in flight: held until that one call resolves,
         whatever the kernel clock does meanwhile *)
  mutable kernels : int;
  mutable quarantines : int;
  mutable reinstated : int;
  mutable suppressed : int;
  mu : Mutex.t;
      (* serializes state transitions so concurrent callers (fleet shards,
         race tests) see a linearizable breaker.  Callbacks — the tool's
         own and [on_trip]/[on_failure] — always run OUTSIDE the lock:
         [on_trip] re-enters the guard through the processor's quarantine
         incident, and a held lock there would self-deadlock. *)
}

let create ?threshold ?cooldown_kernels ?(on_failure = fun _ -> ()) ~on_trip tool =
  let threshold = Option.value threshold ~default:(Config.guard_threshold ()) in
  let cooldown =
    Option.value cooldown_kernels ~default:(Config.guard_cooldown_kernels ())
  in
  if threshold <= 0 then invalid_arg "Guard.create: threshold must be positive";
  if cooldown <= 0 then invalid_arg "Guard.create: cooldown must be positive";
  {
    the_tool = tool;
    slot = Telemetry.tool_slot tool.Tool.name;
    threshold;
    cooldown;
    on_trip;
    on_failure;
    failures = Array.make (List.length all_callbacks) 0;
    window_failures = 0;
    total = 0;
    quarantined_since = None;
    probing = false;
    kernels = 0;
    quarantines = 0;
    reinstated = 0;
    suppressed = 0;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let tool t = t.the_tool

(* Caller holds [t.mu]. *)
let state_locked t =
  match t.quarantined_since with
  | None -> Closed
  | Some since ->
      if (not t.probing) && t.kernels - since >= t.cooldown then Half_open
      else Quarantined

let state t = locked t (fun () -> state_locked t)
let note_kernel t = locked t (fun () -> t.kernels <- t.kernels + 1)

(* Caller holds [t.mu].  The [on_failure] callback is the caller's to fire
   after releasing the lock. *)
let record_failure_locked t cb =
  let i = callback_index cb in
  t.failures.(i) <- t.failures.(i) + 1;
  t.total <- t.total + 1;
  t.window_failures <- t.window_failures + 1

(* Run the callback inside the tool's telemetry span.  A raising callback
   still gets its wall time charged to the tool — that is exactly the time
   a misbehaving (soon-quarantined) tool cost the pipeline. *)
let timed t f =
  Telemetry.begin_tool t.slot;
  match f t.the_tool with
  | () -> Telemetry.end_tool t.slot
  | exception e ->
      Telemetry.end_tool t.slot;
      raise e

let call t cb f =
  let action =
    locked t (fun () ->
        match state_locked t with
        | Quarantined ->
            t.suppressed <- t.suppressed + 1;
            `Skip
        | Half_open ->
            (* Claim the probe: concurrent callers observe [Quarantined]
               and suppress until this one probe resolves.  One probe
               decides — success reinstates, failure re-quarantines for
               another full cooldown. *)
            t.probing <- true;
            `Probe
        | Closed -> `Run)
  in
  match action with
  | `Skip -> ()
  | `Probe -> (
      match timed t f with
      | () ->
          locked t (fun () ->
              t.probing <- false;
              t.quarantined_since <- None;
              t.window_failures <- 0;
              t.reinstated <- t.reinstated + 1)
      | exception _ ->
          let failures =
            locked t (fun () ->
                record_failure_locked t cb;
                t.probing <- false;
                t.quarantined_since <- Some t.kernels;
                t.quarantines <- t.quarantines + 1;
                t.window_failures)
          in
          t.on_failure cb;
          t.on_trip ~failures)
  | `Run -> (
      match timed t f with
      | () -> ()
      | exception _ -> (
          let tripped =
            locked t (fun () ->
                record_failure_locked t cb;
                (* Only the caller that crosses the threshold while the
                   breaker is still closed trips it — a concurrent failure
                   racing past the threshold must not double-trip. *)
                if t.window_failures >= t.threshold && t.quarantined_since = None
                then begin
                  t.quarantined_since <- Some t.kernels;
                  t.quarantines <- t.quarantines + 1;
                  Some t.window_failures
                end
                else None)
          in
          t.on_failure cb;
          match tripped with
          | Some failures -> t.on_trip ~failures
          | None -> ()))

let guarded_report t ppf =
  match timed t (fun tool -> tool.Tool.report ppf) with
  | () -> ()
  | exception e ->
      locked t (fun () -> record_failure_locked t Report);
      t.on_failure Report;
      Format.fprintf ppf "tool %s: report failed (%s)@." t.the_tool.Tool.name
        (Printexc.to_string e)

let total_failures t = locked t (fun () -> t.total)

let failures_by_callback t =
  locked t (fun () ->
      List.filter_map
        (fun cb ->
          let n = t.failures.(callback_index cb) in
          if n > 0 then Some (callback_name cb, n) else None)
        all_callbacks)

let quarantine_count t = locked t (fun () -> t.quarantines)
let reinstated_count t = locked t (fun () -> t.reinstated)
let suppressed_count t = locked t (fun () -> t.suppressed)
