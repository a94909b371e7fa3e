(* The repository benchmark: one workload per process, driven only
   through the layers' public entry points, so every layer is timed
   from outside.

     bench.exe --workload paper-grid|gc-hier|stream-io --seed N
               --seconds S --trace 0|1

   A run repeats the workload in rounds.  Each round builds fresh
   (cold) simulators — the set-up, timed as [setup_s] — and then runs
   the timed region, [wall_s].  Round 1 is a warm-up whose simulated
   counters are checked, outside any timing: against the committed
   reference digest for the default seed, and against the per-event
   oracles for any seed.  Later rounds are measured for [--seconds],
   their medians reported, and their counters checked against round
   1's.  The last line of stdout is one JSON object:
   {correct, attempted, failed, metrics}.

   With [--trace 1] untraced and traced rounds alternate.  Traced
   rounds record spans around each layer call (kept in memory, written
   as Chrome trace-event JSON at exit) and minor-heap word counts; the
   per-layer metrics are printed instead of the end-to-end ones. *)

open Memsim

let default_seed = 1

(* ---------- command line ---------- *)

let workload = ref ""
let seed = ref default_seed
let seconds = ref 10.0
let traced = ref false
let out_dir = "perfbench/out"
let reference_dir = "perfbench/reference"
let write_reference = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " paper-grid | gc-hier | stream-io");
      ("--seed", Arg.Set_int seed, " input seed (default 1, the reference seed)");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Int (fun n -> traced := n <> 0), " 1: traced run, per-layer metrics");
      ("--write-reference", Arg.Set write_reference,
       " write the default seed's digest as the reference and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

let now = Unix.gettimeofday
let t_start = now ()

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mib = 1024 * 1024

(* ---------- spans and per-layer accounting ---------- *)

(* Spans are recorded only while [tracing] is set: a name
   ("<layer>.<call>" or "round"), the program the call served ("all"
   when it served several), start, end and the parent span. *)
type span = {
  sid : int;
  name : string;
  prog : string;
  round : int;
  parent : int;  (** -1 for a round's root span *)
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let round_no = ref 0
let spans : span list ref = ref []
let span_count = ref 0
let stack : int list ref = ref []

(* Exact minor-heap word counts: a forced minor collection publishes
   the calling domain's allocation (joined worker domains are already
   included); the cost of the reading itself is measured once and
   subtracted. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let read_cost =
  let a = minor_words () in
  let b = minor_words () in
  b -. a

(* Per-round layer accounting, keyed by call name and by
   "<call name>@<program>": busy seconds, minor words, and work done
   (events, or events x simulators). *)
let busy : (string, float) Hashtbl.t = Hashtbl.create 32
let words : (string, float) Hashtbl.t = Hashtbl.create 32
let work : (string, float) Hashtbl.t = Hashtbl.create 32

(* Gauges a layer publishes about its own call, per round. *)
let gauges : (string, float) Hashtbl.t = Hashtbl.create 8

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let open_span name prog =
  let sp =
    { sid = !span_count; name; prog; round = !round_no;
      parent = (match !stack with p :: _ -> p | [] -> -1);
      t0 = now (); t1 = 0.0 }
  in
  incr span_count;
  stack := sp.sid :: !stack;
  sp

let close_span sp =
  sp.t1 <- now ();
  stack := List.tl !stack;
  spans := sp :: !spans

(* [call name ~prog ~work:n f] runs one layer call; [name] is
   "<layer>.<call>" and [n r] the work the call did.  Untraced it is
   just [f ()]. *)
let call name ~prog ~work:n f =
  if not !tracing then f ()
  else begin
    let w0 = minor_words () in
    let sp = open_span name prog in
    let r = f () in
    close_span sp;
    let w1 = minor_words () in
    let account tbl v =
      add tbl name v;
      add tbl (name ^ "@" ^ prog) v
    in
    account busy (sp.t1 -. sp.t0);
    account words (w1 -. w0 -. read_cost);
    account work (float (n r));
    r
  end

(* ---------- inputs from the seed ---------- *)

(* Program sizes.  A program that runs a whole number of rounds stays
   at nominal size; the seed moves the two with a fine knob within a
   few percent: lred's step budget by up to 1.5%, nbody's body count
   by one. *)
type size =
  | Rounds of int
  | Steps of int
  | Bodies of int * int  (** bodies, steps *)

(* The programs with their run expressions, in seed order.  The
   default seed is nominal throughout and keeps the given (paper's)
   order. *)
let programs sizes =
  let rng = Random.State.make [| !seed |] in
  let jitter = !seed <> default_seed in
  let expr name = function
    | Rounds n -> Printf.sprintf "(%s-run %d)" name n
    | Steps n ->
      let f = if jitter then 0.985 +. Random.State.float rng 0.03 else 1.0 in
      Printf.sprintf "(%s-run %d)" name (int_of_float (Float.round (float n *. f)))
    | Bodies (b, steps) ->
      let b = if jitter then b - 1 + Random.State.int rng 3 else b in
      Printf.sprintf "(%s-run %d %d)" name b steps
  in
  let progs =
    Array.of_list
      (List.map
         (fun (name, size) ->
           let w =
             match Workloads.Workload.find name with
             | Some w -> w
             | None -> failwith ("no workload " ^ name)
           in
           let e = expr name size in
           { w with Workloads.Workload.entry = (fun ~scale:_ -> e) })
         sizes)
  in
  if jitter then
    (* Fisher–Yates over the program order. *)
    for i = Array.length progs - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = progs.(i) in
      progs.(i) <- progs.(j);
      progs.(j) <- t
    done;
  Array.to_list progs

let all_names = List.map (fun w -> w.Workloads.Workload.name) Workloads.Workload.all

(* A second stream for check choices, so they do not shift the inputs. *)
let pick =
  let rng = Random.State.make [| !seed; 7 |] in
  fun n -> Random.State.int rng n

(* ---------- simulated counters ---------- *)

(* A digest is every simulated counter of a round, as (key, value). *)
type digest = (string * string) list

let stats_digest key (s : Cache.stats) : digest =
  List.map
    (fun (f, v) -> (key ^ "." ^ f, string_of_int v))
    [ ("refs", s.refs); ("collector_refs", s.collector_refs); ("misses", s.misses);
      ("collector_misses", s.collector_misses); ("alloc_misses", s.alloc_misses);
      ("fetches", s.fetches); ("collector_fetches", s.collector_fetches);
      ("writebacks", s.writebacks); ("collector_writebacks", s.collector_writebacks);
      ("writes", s.writes); ("collector_writes", s.collector_writes) ]

let producer_digest (r : Core.Runner.result) recording : digest =
  let p = r.workload.name ^ ".producer." in
  let st = r.stats in
  [ (p ^ "value", r.value); (p ^ "refs", string_of_int r.refs);
    (p ^ "collector_refs", string_of_int r.collector_refs);
    (p ^ "events", string_of_int (Recording.length recording));
    (p ^ "mutator_insns", string_of_int st.mutator_insns);
    (p ^ "collector_insns", string_of_int st.collector_insns);
    (p ^ "collections", string_of_int st.collections);
    (p ^ "bytes_allocated", string_of_int st.bytes_allocated) ]

let config_key (c : Cache.config) =
  Format.asprintf "%a/%d/%s" Sweep.pp_size c.size_bytes c.block_bytes
    (match c.write_miss_policy with
     | Cache.Write_validate -> "wv"
     | Cache.Fetch_on_write -> "fow")

let sweep_digest prog sweep : digest =
  List.concat_map
    (fun (c, s) -> stats_digest (prog ^ "." ^ config_key c) s)
    (Sweep.results sweep)

let hier_digest key h : digest =
  List.concat
    (List.mapi
       (fun i s -> stats_digest (Printf.sprintf "%s.L%d" key (i + 1)) s)
       (Array.to_list (Hier.stats h)))

(* ---------- workloads ---------- *)

(* What a round leaves behind: its digest, the work it simulated, and
   the checks that need its traces (run once, outside the timed
   region). *)
type outcome = {
  digest : digest;
  sim_events : int;  (** trace events x simulators fed *)
  checks : unit -> (string * string * string) list;
      (** (key, expected, actual): oracle re-runs and round-trip
          checks *)
  recordings : Recording.t list;  (** the traces the VM produced *)
}

let no_gc_heap = 48 * mib
let cheney kb = Vscheme.Machine.Cheney { semispace_bytes = kb * 1024 }
let events = Recording.length

let grid_configs =
  let grid policy =
    Sweep.grid ~write_miss_policy:policy ~cache_sizes:Sweep.paper_cache_sizes
      ~block_sizes:Sweep.paper_block_sizes ()
  in
  grid Cache.Write_validate @ grid Cache.Fetch_on_write

(* Per-event oracle for one cache: the closure-sink path. *)
let oracle_cache cfg recording =
  let s = Sweep.create [ cfg ] in
  Recording.replay recording (Sweep.sink s);
  Cache.stats (Sweep.caches s).(0)

let pair_digests (expected : digest) (actual : digest) =
  List.map2 (fun (k, e) (_, a) -> (k, e, a)) expected actual

let name_of (r : Core.Runner.result) = r.workload.name

(* Each workload is a set-up function: it builds the simulators, and
   the closure it returns is the timed region. *)

(* paper-grid: the five programs without GC, each recorded once and
   swept serially through the 80-config paper grid (E-F1/T3/T4). *)
let paper_grid () =
  let progs =
    programs
      [ ("selfcomp", Rounds 2); ("prover", Rounds 1); ("lred", Steps 190);
        ("nbody", Bodies (36, 3)); ("mexpr", Rounds 1) ]
  in
  let configs = List.length grid_configs in
  let setup () =
    let sweeps = List.map (fun _ -> Sweep.create grid_configs) progs in
    fun () ->
      let runs =
        List.map2
          (fun (w : Workloads.Workload.t) sweep ->
            let prog = w.name in
            let r, recording =
              call "vscheme.record" ~prog ~work:(fun (_, rc) -> events rc) (fun () ->
                  Core.Runner.record ~gc:Vscheme.Machine.No_gc ~heap_bytes:no_gc_heap w)
            in
            call "sweep.grid" ~prog
              ~work:(fun () -> events recording * configs)
              (fun () -> Core.Runner.sweep_recording ~label:"perfbench.sweep" sweep recording);
            (r, recording, sweep))
          progs sweeps
      in
      { digest =
          List.concat_map
            (fun (r, recording, sweep) ->
              producer_digest r recording @ sweep_digest (name_of r) sweep)
            runs;
        sim_events = List.fold_left (fun acc (_, rc, _) -> acc + (events rc * configs)) 0 runs;
        checks =
          (fun () ->
            List.concat_map
              (fun (r, recording, sweep) ->
                let cfg, fast = List.nth (Sweep.results sweep) (pick configs) in
                let key = name_of r ^ ".oracle." ^ config_key cfg in
                pair_digests (stats_digest key (oracle_cache cfg recording))
                  (stats_digest key fast))
              runs);
        recordings = List.map (fun (_, rc, _) -> rc) runs }
  in
  setup

(* gc-hier: the five programs under a 256 KB Cheney semispace, traced
   by the sharded producer on two domains and swept through all five
   CPU presets by the fused hierarchy engine on two domains. *)
let gc_hier () =
  let progs =
    programs
      [ ("selfcomp", Rounds 12); ("prover", Rounds 7); ("lred", Steps 1200);
        ("nbody", Bodies (112, 3)); ("mexpr", Rounds 8) ]
  in
  let cpus = Array.of_list Hier.all_cpus in
  let setup () =
    let hiers =
      List.map (fun _ -> Array.map (fun c -> Hier.create (Hier.preset c)) cpus) progs
    in
    let cells =
      List.map (fun w -> Core.Runner.cell ~gc:(cheney 256) ~heap_bytes:no_gc_heap w) progs
    in
    fun () ->
      let recorded =
        call "vscheme.record_grid" ~prog:"all"
          ~work:(Array.fold_left (fun acc (_, rc) -> acc + events rc) 0)
          (fun () -> Core.Runner.record_grid ~jobs:2 cells)
      in
      let runs =
        List.mapi
          (fun i hs ->
            let r, recording = recorded.(i) in
            call "hier.run" ~prog:(name_of r)
              ~work:(fun () -> events recording * Array.length hs)
              (fun () -> Sweep.hier_run_parallel ~jobs:2 hs recording);
            (r, recording, hs))
          hiers
      in
      { digest =
          List.concat_map
            (fun (r, recording, hs) ->
              producer_digest r recording
              @ List.concat
                  (List.mapi
                     (fun j h -> hier_digest (name_of r ^ "." ^ Hier.cpu_label cpus.(j)) h)
                     (Array.to_list hs)))
            runs;
        sim_events =
          List.fold_left (fun acc (_, rc, hs) -> acc + (events rc * Array.length hs)) 0 runs;
        checks =
          (fun () ->
            List.concat_map
              (fun (r, recording, hs) ->
                let j = pick (Array.length cpus) in
                let oracle = Hier.create ~fused:false (Hier.preset cpus.(j)) in
                Recording.replay recording (Hier.sink oracle);
                let key = name_of r ^ ".oracle." ^ Hier.cpu_label cpus.(j) in
                pair_digests (hier_digest key oracle) (hier_digest key hs.(j)))
              runs);
        recordings = List.map (fun (_, rc, _) -> rc) runs }
  in
  setup

let file_size path = (Unix.stat path).Unix.st_size

let gauge name = Obs.Metrics.Gauge.value (Obs.Metrics.gauge Obs.Metrics.default name)

(* stream-io: lred under a 1 MB Cheney semispace, swept while it is
   recorded into the 8-size 64-byte write-validate column; the trace
   is then saved and loaded back in the default format and in v3, and
   the default-format copy replayed through one cache. *)
let stream_io () =
  let w = List.hd (programs [ ("lred", Steps 2400) ]) in
  let prog = w.name in
  let column =
    Sweep.grid ~write_miss_policy:Cache.Write_validate ~cache_sizes:Sweep.paper_cache_sizes
      ~block_sizes:[ 64 ] ()
  in
  let replay_cfg = List.nth column (pick (List.length column)) in
  let v2_path = Filename.concat out_dir "stream.v2" in
  let v3_path = Filename.concat out_dir "stream.v3" in
  let setup () =
    let sweep = Sweep.create column in
    let replay = Sweep.create [ replay_cfg ] in
    fun () ->
      let r, recording =
        call "record_sweep.run" ~prog ~work:(fun (_, rc) -> events rc) (fun () ->
            Core.Runner.record_sweep ~label:"perfbench.stream" ~gc:(cheney 1024)
              ~heap_bytes:no_gc_heap sweep w)
      in
      let n = events recording in
      let io name f = call ("recording." ^ name) ~prog ~work:(fun _ -> n) f in
      io "save" (fun () -> Recording.save recording v2_path);
      let loaded = io "load" (fun () -> Recording.load v2_path) in
      io "v3_save" (fun () -> Recording.save ~format:Recording.V3 recording v3_path);
      let loaded3 = io "v3_load" (fun () -> Recording.load v3_path) in
      call "sweep.replay" ~prog ~work:(fun () -> n) (fun () ->
          Core.Runner.sweep_recording ~label:"perfbench.replay" replay loaded);
      Hashtbl.replace gauges "produce_s" (gauge "perfbench.stream.produce_wall_s");
      Hashtbl.replace gauges "drain_s" (gauge "perfbench.stream.drain_wall_s");
      let v2_bytes = file_size v2_path and v3_bytes = file_size v3_path in
      (* The v3 copy stays mapped; unlinking leaves the mapping valid. *)
      Sys.remove v2_path;
      Sys.remove v3_path;
      { digest =
          producer_digest r recording @ sweep_digest prog sweep
          @ [ (prog ^ ".file.v2_bytes", string_of_int v2_bytes);
              (prog ^ ".file.v3_bytes", string_of_int v3_bytes) ]
          @ sweep_digest (prog ^ ".replay") replay;
        sim_events = (n * List.length column) + n;
        checks =
          (fun () ->
            let fast = List.assoc replay_cfg (Sweep.results sweep) in
            let key = prog ^ ".oracle." ^ config_key replay_cfg in
            let replayed = Cache.stats (Sweep.caches replay).(0) in
            let roundtrip fmt l =
              ("recording." ^ fmt ^ "_roundtrip", "true", string_of_bool (Recording.equal recording l))
            in
            [ roundtrip "v2" loaded; roundtrip "v3" loaded3 ]
            @ pair_digests (stats_digest key (oracle_cache replay_cfg recording))
                (stats_digest key fast)
            @ pair_digests (stats_digest (key ^ ".sweep") fast)
                (stats_digest (key ^ ".replayed") replayed));
        recordings = [ recording ] }
  in
  setup

(* ---------- checks ---------- *)

let mismatches checks = List.length (List.filter (fun (_, e, a) -> e <> a) checks)

let reference_path () = Filename.concat reference_dir (!workload ^ ".digest")

let write_digest path (d : digest) =
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) d;
  close_out oc

let read_digest path : digest =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> (
      match String.index_opt line ' ' with
      | Some i ->
        loop ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
      | None -> loop acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

(* Every key of either digest is checked; a key on one side only is a
   mismatch. *)
let against_reference (reference : digest) (actual : digest) =
  let tbl = Hashtbl.create 4096 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) actual;
  let known = Hashtbl.create 4096 in
  List.iter (fun (k, _) -> Hashtbl.replace known k ()) reference;
  List.map (fun (k, v) -> (k, v, Option.value ~default:"<missing>" (Hashtbl.find_opt tbl k)))
    reference
  @ List.filter_map
      (fun (k, v) -> if Hashtbl.mem known k then None else Some (k, "<missing>", v))
      actual

(* The self-test: flip one actual counter, which the comparison must
   report. *)
let flip_one = function
  | (k, e, a) :: rest ->
    let a' = match int_of_string_opt a with Some n -> string_of_int (n + 1) | None -> a ^ "'" in
    (k, e, a') :: rest
  | [] -> []

(* ---------- output ---------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec loop () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d" (fun kb -> float kb /. 1024.0)
    | _ -> loop ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> "bench"

let write_chrome_trace path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i sp ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\
         \"args\":{\"id\":\"%s\",\"span\":%d,\"parent\":%d,\"round\":%d}}"
        sp.name (layer_of sp.name)
        ((sp.t0 -. t_start) *. 1e6)
        ((sp.t1 -. sp.t0) *. 1e6)
        sp.prog sp.sid sp.parent sp.round)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

(* ---------- the run ---------- *)

let layers = [ "vscheme"; "sweep"; "hier"; "record_sweep"; "recording"; "bench" ]

(* Self time per layer in one round: each span's duration minus the
   part its children cover (children never overlap: the calls are
   made one after another from this domain).  The round span's own
   self time is the benchmark's glue, "bench". *)
let self_times round =
  let mine = List.filter (fun sp -> sp.round = round) !spans in
  let child = Hashtbl.create 16 in
  List.iter
    (fun sp -> if sp.parent >= 0 then add child (string_of_int sp.parent) (sp.t1 -. sp.t0))
    mine;
  let self = Hashtbl.create 8 in
  List.iter
    (fun sp -> add self (layer_of sp.name) (sp.t1 -. sp.t0 -. get child (string_of_int sp.sid)))
    mine;
  self

(* One traced round's accounting tables. *)
type traced_round = {
  no : int;
  wall : float;
  busy_t : (string, float) Hashtbl.t;
  words_t : (string, float) Hashtbl.t;
  work_t : (string, float) Hashtbl.t;
  gauges_t : (string, float) Hashtbl.t;
  digest_t : digest;
}

let layer_metrics metric (rounds : traced_round list) =
  let med f = median (List.map f rounds) in
  (* Sum of a table over a layer's calls ("<layer>."), or over one
     program's calls of a layer ("<layer>.*@<prog>"). *)
  let sum tbl ?prog layer =
    Hashtbl.fold
      (fun k v acc ->
        let matches =
          String.starts_with ~prefix:(layer ^ ".") k
          &&
          match (prog, String.index_opt k '@') with
          | None, None -> true
          | Some p, Some i -> String.sub k (i + 1) (String.length k - i - 1) = p
          | _ -> false
        in
        if matches then acc +. v else acc)
      tbl 0.0
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let busy ?prog layer r = sum r.busy_t ?prog layer in
  let work ?prog layer r = sum r.work_t ?prog layer in
  let per_work scale layer r = ratio (busy layer r *. scale) (work layer r) in
  let words_per layer r = ratio (sum r.words_t layer) (work layer r) in
  let counted suffix r =
    List.fold_left
      (fun acc (k, v) -> if String.ends_with ~suffix k then acc +. float_of_string v else acc)
      0.0 r.digest_t
  in
  metric "vscheme.busy_s" "s" (med (busy "vscheme"));
  metric "vscheme.events" "count" (med (counted ".producer.events"));
  metric "vscheme.ns_per_event" "ns" (med (per_work 1e9 "vscheme"));
  metric "vscheme.collections" "count" (med (counted ".producer.collections"));
  metric "vscheme.collector_refs" "count" (med (counted ".producer.collector_refs"));
  metric "vscheme.minor_words_per_event" "words" (med (words_per "vscheme"));
  metric "sweep.busy_s" "s" (med (busy "sweep"));
  metric "sweep.cache_events" "count" (med (work "sweep"));
  metric "sweep.ns_per_cache_event" "ns" (med (per_work 1e9 "sweep"));
  metric "sweep.minor_words_per_event" "words" (med (words_per "sweep"));
  List.iter
    (fun prog ->
      metric ("sweep.ns_per_cache_event." ^ prog) "ns"
        (med (fun r -> ratio (busy ~prog "sweep" r *. 1e9) (work ~prog "sweep" r))))
    all_names;
  metric "hier.busy_s" "s" (med (busy "hier"));
  metric "hier.hier_events" "count" (med (work "hier"));
  metric "hier.ns_per_hier_event" "ns" (med (per_work 1e9 "hier"));
  metric "hier.minor_words_per_event" "words" (med (words_per "hier"));
  metric "record_sweep.busy_s" "s" (med (busy "record_sweep"));
  metric "record_sweep.produce_s" "s" (med (fun r -> get r.gauges_t "produce_s"));
  metric "record_sweep.drain_s" "s" (med (fun r -> get r.gauges_t "drain_s"));
  metric "record_sweep.ns_per_event" "ns" (med (per_work 1e9 "record_sweep"));
  metric "record_sweep.minor_words_per_event" "words" (med (words_per "record_sweep"));
  let file_bytes fmt r =
    ratio (counted (".file." ^ fmt ^ "_bytes") r) (counted ".producer.events" r)
  in
  let io name r = get r.busy_t name in
  metric "recording.save_s" "s" (med (io "recording.save"));
  metric "recording.load_s" "s" (med (io "recording.load"));
  metric "recording.bytes_per_event" "B" (med (file_bytes "v2"));
  metric "recording.v3_save_s" "s" (med (io "recording.v3_save"));
  metric "recording.v3_load_s" "s" (med (io "recording.v3_load"));
  metric "recording.v3_bytes_per_event" "B" (med (file_bytes "v3"));
  metric "recording.minor_words_per_event" "words" (med (words_per "recording"));
  let selfs = List.map (fun r -> (self_times r.no, r.wall)) rounds in
  List.iter
    (fun layer ->
      metric ("self_s." ^ layer) "s" (median (List.map (fun (s, _) -> get s layer) selfs));
      metric ("share." ^ layer) "ratio" (median (List.map (fun (s, w) -> get s layer /. w) selfs)))
    layers

let () =
  let setup =
    match !workload with
    | "paper-grid" -> paper_grid ()
    | "gc-hier" -> gc_hier ()
    | "stream-io" -> stream_io ()
    | w ->
      prerr_endline ("bench: unknown --workload " ^ String.escaped w);
      exit 2
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Core.Runner.set_jobs 1;
  if !write_reference then begin
    if !seed <> default_seed then failwith "--write-reference needs the default seed";
    let out = setup () () in
    write_digest (reference_path ()) out.digest;
    Printf.printf "wrote %s (%d counters)\n" (reference_path ()) (List.length out.digest);
    exit 0
  end;
  (* One round: fresh simulators (set-up), then the timed region. *)
  let round ~traced_round =
    Gc.full_major ();
    incr round_no;
    Hashtbl.reset busy;
    Hashtbl.reset words;
    Hashtbl.reset work;
    Hashtbl.reset gauges;
    let t0 = now () in
    let run = setup () in
    let t1 = now () in
    tracing := traced_round;
    let root = if traced_round then Some (open_span "round" "all") else None in
    let out = run () in
    Option.iter close_span root;
    tracing := false;
    let t2 = now () in
    Printf.printf "round %d%s: setup %.4f s, wall %.4f s\n%!" !round_no
      (if traced_round then " (traced)" else "")
      (t1 -. t0) (t2 -. t1);
    (t1 -. t0, t2 -. t1, out)
  in
  (* Vscheme.Gc_cheney keeps every heap it has managed in a global
     registry, so each machine, and the recording its memory writes
     into, outlives the run.  Clearing the recordings after a round
     releases the trace slabs and keeps the process to one round's
     memory. *)
  let release out = List.iter Recording.clear out.recordings in
  (* Round 1 warms the process up and is the round whose traces are
     checked, right after it and outside any timing; its times are not
     reported.  Then rounds are measured (untraced, or alternating
     untraced and traced with --trace 1) while their set-up plus timed
     time stays within --seconds, with at least two of each kind. *)
  let _, _, out = round ~traced_round:false in
  (* Peak memory of running the workload once: later rounds only add
     what the leaked machines hold. *)
  let rss = peak_rss_mb () in
  let digest = out.digest in
  let t = now () in
  let oracle = out.checks () in
  Printf.printf "oracle checks: %d counters in %.2f s\n%!" (List.length oracle) (now () -. t);
  release out;
  let untraced = ref [] and traced_rounds = ref [] in
  let setups = ref [] and rates = ref [] and round_checks = ref [] in
  let measured = ref 0.0 and last = ref 0.0 in
  let enough () =
    (* Stop before a round that would overrun --seconds. *)
    !measured +. !last > !seconds
    && List.length !untraced >= 2
    && ((not !traced) || List.length !traced_rounds >= 2)
  in
  while not (enough ()) do
    let traced_round = !traced && List.length !traced_rounds < List.length !untraced in
    let setup, wall, out = round ~traced_round in
    last := setup +. wall;
    measured := !measured +. !last;
    setups := setup :: !setups;
    if traced_round then
      traced_rounds :=
        { no = !round_no; wall; busy_t = Hashtbl.copy busy; words_t = Hashtbl.copy words;
          work_t = Hashtbl.copy work; gauges_t = Hashtbl.copy gauges; digest_t = out.digest }
        :: !traced_rounds
    else begin
      untraced := wall :: !untraced;
      rates := (float out.sim_events /. wall) :: !rates
    end;
    round_checks := pair_digests digest out.digest @ !round_checks;
    release out
  done;
  let reference =
    if !seed <> default_seed then []
    else if Sys.file_exists (reference_path ()) then
      against_reference (read_digest (reference_path ())) digest
    else [ ("reference." ^ !workload, "<present>", "<missing>") ]
  in
  let checks = reference @ oracle @ !round_checks in
  let failed = mismatches checks and attempted = List.length checks in
  let self_test = mismatches (flip_one (reference @ oracle)) in
  let correct = failed = 0 && self_test >= 1 in
  List.iter
    (fun (k, e, a) -> if e <> a then Printf.printf "mismatch %s: expected %s, got %s\n" k e a)
    checks;
  let metrics = ref [] in
  let metric name unit v = metrics := (name, unit, v) :: !metrics in
  let uw = median !untraced in
  if not !traced then begin
    metric "wall_s" "s" uw;
    metric "setup_s" "s" (median !setups);
    metric "sim_events_per_s" "1/s" (median !rates);
    metric "peak_rss_mb" "MB" rss;
    metric "match_ratio" "ratio" (1.0 -. (float failed /. float (max 1 attempted)))
  end
  else begin
    let rounds = List.rev !traced_rounds in
    layer_metrics metric rounds;
    let tw = median (List.map (fun r -> r.wall) rounds) in
    metric "trace.traced_wall_s" "s" tw;
    metric "trace.untraced_wall_s" "s" uw;
    metric "trace.overhead_s" "s" (tw -. uw);
    metric "trace.self_sum_s" "s"
      (List.fold_left
         (fun acc (n, _, v) -> if String.starts_with ~prefix:"self_s." n then acc +. v else acc)
         0.0 !metrics);
    metric "trace.spans" "count" (float !span_count);
    metric "check.mismatch_ratio" "ratio" (float failed /. float (max 1 attempted));
    metric "check.counters" "count" (float attempted);
    metric "check.self_test_mismatches" "count" (float self_test);
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
    write_chrome_trace path;
    Printf.printf "spans written to %s\n" path
  end;
  let metrics = List.rev !metrics in
  List.iter (fun (n, u, v) -> Printf.printf "%-40s %22s %s\n" n (json_number v) u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))
