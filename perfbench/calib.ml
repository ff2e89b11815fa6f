(* Machine-speed calibration for the wall-clock metrics.

   The benchmark runs on shared CPUs whose speed drifts for seconds at a
   time: on a 2-vCPU container the same fixed loop was measured taking
   anywhere from 0.36 s to 0.64 s, and whole 5-second phases of the live
   ring ran 30-40% slower than the same phase of another run.  So each
   wall-clock metric is reported at a reference machine speed: a fixed
   piece of CPU work ([kernel]) is timed interleaved with the workload,
   and a time measured while the kernel took [k] seconds is scaled by
   [reference / k].  On a machine of steady speed this multiplies every
   time by one constant; on a drifting one it removes most of the drift.
   The kernel's own time is never counted in a measured time.

   The live ring takes its samples between requests.  Its requests spend
   much of their time in loopback socket calls, whose cost drifts apart
   from the CPU's, so it also times a loopback kernel ([sample_loopback])
   and is scaled by the geometric mean of the two slowdowns.  A simulation phase
   is one long call into the engine, so a simulation pass is sampled from
   a SIGALRM handler every 50 ms of wall time ([sampling]), and each of
   its times is scaled by the pass's median; the handler touches nothing
   of the program's. *)

(* Two dependent walks, neither allocating, so the kernel never runs the
   GC on the workload's behalf: one through a 32 KiB table mixed with
   integer work (what a handler does between allocations), one around a
   random cycle through 16 MiB (what a large heap costs when a neighbour
   contends for the caches and memory). *)
let table = Array.init 4096 (fun i -> ((i * 2654435761) lsr 7) land 4095)

(* Outside the OCaml heap, so it neither grows the heap the GC sizes
   itself by nor gets scanned; it adds a constant 16 MiB to the resident
   set. *)
let cycle =
  let n = 1 lsl 21 in
  let a = Bigarray.(Array1.create int c_layout n) in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  let rng = Random.State.make [| 7 |] in
  (* Sattolo's shuffle: one cycle through every slot *)
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let cursor = ref 0

let kernel () =
  let acc = ref 0 and j = ref 0 in
  for i = 1 to 125_000 do
    j := Array.unsafe_get table ((!j + i) land 4095);
    acc := !acc + ((!j * i) lxor (!acc lsr 3))
  done;
  ignore (Sys.opaque_identity !acc);
  let k = ref !cursor in
  for _ = 1 to 5_000 do
    k := Bigarray.Array1.unsafe_get cycle !k
  done;
  cursor := !k

(* Kernel seconds a machine of reference speed takes. *)
let reference = 1e-3

(* The loopback kernel: 20 round trips of a 64-byte message over one
   loopback TCP connection of its own, each side polled with a zero
   timeout as the live transport polls, then read. *)
let loopback =
  lazy
    (let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () -> Unix.close listener)
       (fun () ->
         Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
         Unix.listen listener 1;
         let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.connect a (Unix.getsockname listener);
         let b, _ = Unix.accept listener in
         List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ a; b ];
         (a, b)))

let message = Bytes.create 64

let loopback_kernel () =
  let a, b = Lazy.force loopback in
  let hop src dst =
    ignore (Unix.write src message 0 64 : int);
    ignore (Unix.select [ dst ] [] [] 0. : _ * _ * _);
    let got = ref 0 in
    while !got < 64 do
      got := !got + Unix.read dst message !got (64 - !got)
    done
  in
  for _ = 1 to 20 do
    hop a b;
    hop b a
  done

(* Kernel seconds on a machine of reference speed. *)
let loopback_reference = 1e-4

type t = {
  mutable samples : float list;
  mutable loopback_samples : float list;
  mutable total : float;  (* seconds spent in either kernel *)
}

let create () = { samples = []; loopback_samples = []; total = 0. }

let now = Unix.gettimeofday

let time_kernel c k =
  let t0 = now () in
  k ();
  let s = now () -. t0 in
  c.total <- c.total +. s;
  s

let sample c = c.samples <- time_kernel c kernel :: c.samples

let sample_loopback c =
  c.loopback_samples <- time_kernel c loopback_kernel :: c.loopback_samples

let samples c n =
  for _ = 1 to n do
    sample c
  done

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* How much slower than the reference the machine ran while [c] was
   sampled (the median sample; with loopback samples too, the geometric
   mean of both kernels' medians): divide a measured time by it,
   multiply a rate. *)
let slowdown c =
  if c.samples = [] then samples c 5;
  let cpu = median_of c.samples /. reference in
  match c.loopback_samples with
  | [] -> cpu
  | l -> Float.sqrt (cpu *. (median_of l /. loopback_reference))

(* [unscaled c f] runs [f] and returns its result with its wall seconds,
   less the kernel time sampled into [c] meanwhile. *)
let unscaled c f =
  let k0 = c.total in
  let t0 = now () in
  let r = f () in
  (r, now () -. t0 -. (c.total -. k0))

(* [timed f] runs a short call and returns its result with its seconds
   at reference speed, against five samples taken just before it (of
   both kernels with [~loopback:true]). *)
let timed ?(loopback = false) f =
  let c = create () in
  samples c 5;
  if loopback then
    for _ = 1 to 5 do
      sample_loopback c
    done;
  let r, s = unscaled c f in
  (r, s /. slowdown c)

(* --- periodic sampling ------------------------------------------------- *)

let active : t option ref = ref None

(* Installed once and never removed, so a signal still pending when
   sampling stops finds the handler and does nothing. *)
let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> match !active with Some c -> sample c | None -> ()))

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period }
      : Unix.interval_timer_status)

(* [sampling c f] runs [f] with a kernel sample into [c] every 50 ms. *)
let sampling c f =
  active := Some c;
  set_timer 0.05;
  Fun.protect f ~finally:(fun () ->
      set_timer 0.;
      active := None)
