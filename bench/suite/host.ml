(* The host's CPU speed, measured in the benchmark's own process while the
   workload runs, and the correction of end-to-end times to a reference
   speed.

   On a shared virtual machine the same loop can take 1.5 to 2 times as
   long for a few seconds at a time, and CPU-bound operations slow with
   it. Uncorrected, the medians of two sets of ten runs of the same code
   differed by up to 34%. So a probe runs every [interval] seconds during
   the timed phase, and each operation's latency is corrected by the
   slowdown the probes saw around it: the share of time the process was
   on the CPU is divided by that slowdown, and the rest (sleeps standing
   in for roundtrips and service calls) is kept as measured.

   The probe is a fixed piece of ordinary OCaml work: it fills a
   Hashtbl and a Map from 300 fixed string keys, sorts a list and
   appends to a Buffer. It uses the standard library only, so no change
   to the system under test can make it faster. The workloads slow down
   more than a tight loop does, and this probe tracks them: its
   allocation and its spread-out code feel the host the way the
   workloads do. Random walks over 128 KiB, 4 MiB and 64 MiB arrays and a
   loop of pure arithmetic were tried and tracked them less closely. A
   probe that allocates sometimes pays for a minor collection of the
   workload's garbage; the median over the probes around an operation
   leaves those out. *)

let now = Trace.now

module Smap = Map.Make (String)

let keys = Array.init 300 (fun i -> Printf.sprintf "key%05d" (i * 7919 mod 100_000))
let sink = ref 0

(* Seconds one probe takes. *)
let probe () =
  let t0 = now () in
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i k -> Hashtbl.replace tbl k i) keys;
  let map = Array.fold_left (fun m k -> Smap.add k (Hashtbl.find tbl k) m) Smap.empty keys in
  let sorted = List.sort compare (Smap.fold (fun k v acc -> (v, k) :: acc) map []) in
  let b = Buffer.create 256 in
  List.iter (fun (v, k) -> if v land 3 = 0 then Buffer.add_string b k) sorted;
  sink := Buffer.length b;
  now () -. t0

(* Seconds the probe takes at the reference speed: about its fastest on
   the 2-vCPU virtual machine whose numbers README.md reports (the 1st
   percentile of 25,916 probes was 129 us, the median 165 us). Every
   corrected time is a time at that speed. *)
let reference = 130e-6

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The factor that takes an interval measured at [slowdown] times the
   reference speed, with the process on the CPU for [busy] of it, to the
   reference speed. *)
let scale ~busy ~slowdown = 1. -. busy +. (busy /. slowdown)

(* ------------------------------------------------------------------ *)
(* Set-up: probes run back to back before and after it                  *)

let burst n = Array.init n (fun _ -> probe ())

(* [f ()]'s wall time at the reference speed, and its result. *)
let timed_at_reference f =
  let before = burst 9 in
  let cpu0 = cpu_seconds () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let busy = Float.min 1. ((cpu_seconds () -. cpu0) /. wall) in
  let slowdown = median (Array.append before (burst 9)) /. reference in
  (wall *. scale ~busy ~slowdown, r)

(* ------------------------------------------------------------------ *)
(* Timed phase: a probe thread                                          *)

let interval = 0.02

(* Probes within this many seconds of an operation judge its speed. The
   host's slow spells last seconds; a narrower window follows them no
   better and rests on fewer probes. *)
let window = 0.25

type sampler = {
  lock : Mutex.t;
  mutable samples : (float * float) list;  (** (start, seconds), newest first *)
  mutable running : bool;
  mutable thread : Thread.t option;
  cpu0 : float;
  t0 : float;
}

let start () =
  let s =
    { lock = Mutex.create (); samples = []; running = true; thread = None;
      cpu0 = cpu_seconds (); t0 = now () }
  in
  let rec loop () =
    Thread.delay interval;
    if s.running then begin
      let at = now () in
      let took = probe () in
      Mutex.lock s.lock;
      s.samples <- (at, took) :: s.samples;
      Mutex.unlock s.lock;
      loop ()
    end
  in
  s.thread <- Some (Thread.create loop ());
  s

type t = {
  at : float array;  (** Probe start times, ascending. *)
  took : float array;
  busy : float;
      (** Share of the phase the process spent on the CPU, probes
          excluded. *)
}

(* Stops the sampler; a phase too short for 3 probes gets a burst. *)
let stop s =
  let t1 = now () in
  let cpu = cpu_seconds () -. s.cpu0 in
  s.running <- false;
  Option.iter Thread.join s.thread;
  let samples = List.rev s.samples in
  let samples =
    if List.length samples >= 3 then samples
    else samples @ Array.to_list (Array.map (fun d -> (t1, d)) (burst 3))
  in
  let probing = List.fold_left (fun acc (_, d) -> acc +. d) 0. samples in
  { at = Array.of_list (List.map fst samples);
    took = Array.of_list (List.map snd samples);
    busy = Float.max 0. (Float.min 1. ((cpu -. probing) /. (t1 -. s.t0))) }

(* index of the first probe starting at or after [t] *)
let first_at p t =
  let lo = ref 0 and hi = ref (Array.length p.at) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.at.(mid) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* The slowdown over [t0, t1]: the median probe within [window] of it,
   widened to the nearest 3 probes when fewer lie there. *)
let slowdown p ~t0 ~t1 =
  let n = Array.length p.at in
  let lo = ref (first_at p (t0 -. window)) and hi = ref (first_at p (t1 +. window)) in
  while !hi - !lo < 3 do
    if !lo > 0 then decr lo;
    if !hi - !lo < 3 && !hi < n then incr hi
  done;
  median (Array.sub p.took !lo (!hi - !lo)) /. reference

let factor p ~t0 ~t1 = scale ~busy:p.busy ~slowdown:(slowdown p ~t0 ~t1)

(* The length of [t0, t1] at the reference speed. *)
let wall_at_reference p ~t0 ~t1 =
  let step = 0.05 in
  let rec go t acc =
    if t >= t1 then acc
    else
      let dt = Float.min step (t1 -. t) in
      go (t +. dt) (acc +. (dt *. factor p ~t0:t ~t1:(t +. dt)))
  in
  go t0 0.

(* The phase's median slowdown, for the per-layer report. *)
let median_slowdown p = median p.took /. reference
