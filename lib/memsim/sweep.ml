let kb n = n * 1024
let mb n = n * 1024 * 1024

let paper_cache_sizes =
  [ kb 32; kb 64; kb 128; kb 256; kb 512; mb 1; mb 2; mb 4 ]

let paper_block_sizes = [ 16; 32; 64; 128; 256 ]

let pp_size = Size.pp

type t = {
  caches : Cache.t array;        (* configuration order *)
  columns : Cache.column array;  (* every cache in exactly one column *)
}

(* Caches that share block size, write-miss policy and
   collector_fetch_on_write form one column (Cache.column sorts it by
   size), so a grid costs one pass per column rather than one per
   cache.  Caches recording per-block statistics run per event and
   stay alone.  Columns keep the order of their first member. *)
let create configs =
  let caches = Array.of_list (List.map Cache.create configs) in
  let key c =
    let g = Cache.geometry c in
    if g.Cache.record_block_stats then -1
    else
      (g.Cache.block_bytes lsl 2)
      lor (match g.Cache.write_miss_policy with
           | Cache.Write_validate -> 0
           | Cache.Fetch_on_write -> 2)
      lor if g.Cache.collector_fetch_on_write then 1 else 0
  in
  (* (key, members in reverse), newest column first *)
  let groups = ref [] in
  Array.iter
    (fun c ->
      let k = key c in
      match List.assoc_opt k !groups with
      | Some members when k >= 0 -> members := c :: !members
      | _ -> groups := (k, ref [ c ]) :: !groups)
    caches;
  let columns =
    List.rev_map (fun (_, members) -> Cache.column (List.rev !members)) !groups
    |> Array.of_list
  in
  { caches; columns }

let grid ?(write_miss_policy = Cache.Write_validate) ~cache_sizes ~block_sizes
    () =
  List.concat_map
    (fun size_bytes ->
      List.map
        (fun block_bytes ->
          Cache.config ~write_miss_policy ~size_bytes ~block_bytes ())
        block_sizes)
    cache_sizes

let sink t =
  let caches = t.caches in
  let n = Array.length caches in
  { Trace.access =
      (fun addr kind phase ->
        for i = 0 to n - 1 do
          Cache.access (Array.unsafe_get caches i) addr kind phase
        done)
  }

let caches t = t.caches

let write_miss_label = function
  | Cache.Write_validate -> "write-validate"
  | Cache.Fetch_on_write -> "fetch-on-write"

(* Error context: callers that run sweeps on behalf of something else
   (the serve scheduler runs them for submitted jobs) prefix failures
   with who the work was for, so a surfaced error names the job and
   manifest, not just the geometry. *)
let with_ctx ctx msg =
  match ctx with None -> msg | Some c -> c ^ ": " ^ msg

let find ?ctx t ~size_bytes ~block_bytes =
  let matches c =
    let g = Cache.geometry c in
    g.Cache.size_bytes = size_bytes && g.Cache.block_bytes = block_bytes
  in
  let rec loop i =
    if i >= Array.length t.caches then
      (* Sweeps are policy-pluggable: name the configured write-miss
         policies so a grid built under the wrong policy is
         recognizable from the error alone. *)
      let policies =
        Array.fold_left
          (fun acc c ->
            let l = write_miss_label (Cache.geometry c).Cache.write_miss_policy in
            if List.exists (String.equal l) acc then acc else l :: acc)
          [] t.caches
        |> List.rev |> String.concat "/"
      in
      failwith
        (with_ctx ctx
           (Format.asprintf
              "Sweep.find: no %a cache with %db blocks among the %d \
               configured (%s)"
              pp_size size_bytes block_bytes
              (Array.length t.caches)
              (if String.length policies = 0 then "no policies" else policies)))
    else if matches t.caches.(i) then t.caches.(i)
    else loop (i + 1)
  in
  loop 0

let results t =
  Array.to_list (Array.map (fun c -> (Cache.geometry c, Cache.stats c)) t.caches)

(* --- Chunk-batched delivery ------------------------------------------- *)

let access_chunk t buf off len =
  let columns = t.columns in
  for i = 0 to Array.length columns - 1 do
    Cache.column_access_chunk (Array.unsafe_get columns i) buf off len
  done

let chunked_sink ?chunk_events t =
  Chunk.producer ?chunk_events (fun buf len -> access_chunk t buf 0 len)

(* --- The replay engine --------------------------------------------------- *)

(* What one worker claims whole: a column of the grid, a fused
   hierarchy, or one cache replayed with miss attribution (its own
   side-table cursor and profile).  Units are independent simulators
   and a sealed recording is read-only, so any partition of the units
   across domains gives results bit-identical to a serial run. *)
type replay_unit =
  | Column of Cache.column
  | Levels of Hier.t
  | Attributed of Cache.t * Attr.cursor * Attr.profile

(* Deliver [len] events of [buf] from [off]; [base] is the recording
   index of [buf.{off}].  An attributed unit counts chunks and
   attributes every [sample_every]th; the rest take the plain fast
   path, so aggregate statistics stay exact. *)
let feed u buf ~base off len =
  match u with
  | Column col -> Cache.column_access_chunk col buf off len
  | Levels h -> Hier.access_chunk h buf off len
  | Attributed (c, cur, prof) ->
    let n = prof.Attr.chunks_seen in
    prof.Attr.chunks_seen <- n + 1;
    if n mod prof.Attr.sample_every = 0 then begin
      prof.Attr.chunks_attributed <- prof.Attr.chunks_attributed + 1;
      Cache.access_chunk_attr c cur prof ~base buf off len
    end
    else Cache.access_chunk c buf off len

(* Replay the event range [from_, until) of a recording into one unit.
   Slabs are fixed-size, so the range maps to per-chunk offsets. *)
let replay_range u recording ~from_ ~until =
  let base = ref 0 in
  Recording.iter_chunks recording (fun buf len ->
      let b = !base in
      base := b + len;
      let lo = max from_ b in
      let hi = min until (b + len) in
      if lo < hi then feed u buf ~base:lo (lo - b) (hi - lo))

(* The engine's one work-claim loop: every domain (the caller plus
   [jobs - 1] spawned ones) claims whole units off an atomic cursor
   and replays the range into each.  With one job it is the serial
   oracle, units in order on the calling domain. *)
let replay ~jobs units recording ~from_ ~until =
  let n = Array.length units in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      replay_range units.(i) recording ~from_ ~until;
      worker ()
    end
  in
  let domains =
    Array.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  Array.iter Domain.join domains

let replay_all ~jobs units recording =
  replay ~jobs units recording ~from_:0 ~until:(Recording.length recording)

let column_units t = Array.map (fun col -> Column col) t.columns
let hier_units hiers = Array.map (fun h -> Levels h) hiers

let run_parallel ~jobs t recording =
  replay_all ~jobs (column_units t) recording

let run_serial t recording = run_parallel ~jobs:1 t recording

let run_attributed ?(jobs = 1) ?(sample_every = 1) ?heat_rows ?heat_cols
    ~addr_limit t table recording =
  if sample_every < 1 then
    invalid_arg "Sweep.run_attributed: sample_every must be >= 1";
  let events = Recording.length recording in
  let num_sites = Attr.num_sites table in
  let profiles =
    Array.map
      (fun _ ->
        Attr.profile_create ?heat_rows ?heat_cols ~sample_every ~num_sites
          ~addr_limit ~events ())
      t.caches
  in
  replay_all ~jobs
    (Array.mapi
       (fun i c -> Attributed (c, Attr.cursor table, profiles.(i)))
       t.caches)
    recording;
  profiles

let hier_run_parallel ~jobs hiers recording =
  replay_all ~jobs (hier_units hiers) recording

let hier_run_serial hiers recording = hier_run_parallel ~jobs:1 hiers recording

(* --- Checkpoint / resume ------------------------------------------------ *)

(* A checkpoint pins an in-flight replay: the number of events every
   simulator has consumed (the cursor) plus a full snapshot of each.
   Replay is deterministic and simulators are independent, so
   restoring the snapshots and continuing from the cursor is
   bit-identical to never having stopped.  The file is written to a
   temp name and renamed so a crash mid-checkpoint can never leave a
   torn file where a resume would find it.

   Grid and hierarchy checkpoints share the framing (8-byte magic,
   cursor / event count / simulator count as little-endian int64s,
   then the snapshots) and differ only in the data below.  The magic
   is what tells a reader (a resume, Check.Ckpt_check) which kind of
   snapshot follows. *)

type format = {
  magic : string;
  loader : string;  (* the public function named in load errors *)
  what : string;    (* "not a <what> checkpoint" *)
  noun : string;    (* "holds %d <noun>" *)
}

let grid_format =
  { magic = "SWPCKPT1"; loader = "load_checkpoint"; what = "sweep";
    noun = "caches" }

let hier_format =
  { magic = "SWHCKPT1"; loader = "load_hier_checkpoint"; what = "hierarchy";
    noun = "hierarchies" }

let save_frame fmt snapshots ~events ~cursor path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     let hdr = Bytes.create 24 in
     Bytes.set_int64_le hdr 0 (Int64.of_int cursor);
     Bytes.set_int64_le hdr 8 (Int64.of_int events);
     Bytes.set_int64_le hdr 16 (Int64.of_int (Array.length snapshots));
     output_string oc fmt.magic;
     output_bytes oc hdr;
     let buf = Buffer.create (1 lsl 16) in
     Array.iter
       (fun snapshot ->
         Buffer.clear buf;
         snapshot buf;
         Buffer.output_buffer oc buf)
       snapshots;
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load_frame ?ctx fmt restores ~events path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail msgf =
        Printf.ksprintf
          (fun msg ->
            failwith (with_ctx ctx ("Sweep." ^ fmt.loader ^ ": " ^ msg)))
          msgf
      in
      let magic =
        try really_input_string ic 8
        with End_of_file -> fail "%s is not a %s checkpoint" path fmt.what
      in
      if magic <> fmt.magic then
        fail "%s is not a %s checkpoint" path fmt.what;
      let hdr = Bytes.create 24 in
      (try really_input ic hdr 0 24
       with End_of_file -> fail "%s has a truncated header" path);
      let cursor = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let ck_events = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let count = Int64.to_int (Bytes.get_int64_le hdr 16) in
      if ck_events <> events then
        fail "%s was taken over %d events but the recording has %d" path
          ck_events events;
      if cursor < 0 || cursor > events then
        fail "%s has a corrupt cursor %d (recording has %d events)" path
          cursor events;
      if count <> Array.length restores then
        fail "%s holds %d %s but the sweep has %d" path count fmt.noun
          (Array.length restores);
      let body_bytes = in_channel_length ic - pos_in ic in
      let body = Bytes.create body_bytes in
      really_input ic body 0 body_bytes;
      let pos = ref 0 in
      (try Array.iter (fun restore -> pos := restore body !pos) restores
       with Invalid_argument msg -> fail "%s: %s" path msg);
      if !pos <> body_bytes then
        fail "%s has %d trailing bytes" path (body_bytes - !pos);
      cursor)

let save_checkpoint t ~events ~cursor path =
  save_frame grid_format (Array.map Cache.snapshot t.caches) ~events ~cursor
    path

let load_checkpoint ?ctx t ~events path =
  let cursor =
    load_frame ?ctx grid_format (Array.map Cache.restore t.caches) ~events path
  in
  (* Certificates are derived, not checkpointed: the restored members
     start with none. *)
  Array.iter Cache.column_reset t.columns;
  cursor

let save_hier_checkpoint hiers ~events ~cursor path =
  save_frame hier_format (Array.map Hier.snapshot hiers) ~events ~cursor path

let load_hier_checkpoint ?ctx hiers ~events path =
  load_frame ?ctx hier_format (Array.map Hier.restore hiers) ~events path

let default_checkpoint_events = 1 lsl 22

(* Epochs with a barrier at each checkpoint: within an epoch the units
   progress independently (possibly on worker domains), but a
   checkpoint is only taken when every unit has consumed exactly
   [cursor] events, so one cursor describes them all. *)
let resume ~jobs ~checkpoint_every ?progress ~checkpoint ~load ~save units
    recording =
  let events = Recording.length recording in
  let every = max 1 checkpoint_every in
  let cursor = ref 0 in
  if Sys.file_exists checkpoint then cursor := load ~events checkpoint;
  (match progress with Some f -> f !cursor | None -> ());
  while !cursor < events do
    let epoch_end = min events (!cursor + every) in
    replay ~jobs units recording ~from_:!cursor ~until:epoch_end;
    cursor := epoch_end;
    save ~events ~cursor:!cursor checkpoint;
    match progress with Some f -> f !cursor | None -> ()
  done

let run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint t
    recording =
  resume ~jobs ~checkpoint_every ?progress ~checkpoint
    ~load:(load_checkpoint ?ctx t) ~save:(save_checkpoint t) (column_units t)
    recording

let hier_run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint
    hiers recording =
  resume ~jobs ~checkpoint_every ?progress ~checkpoint
    ~load:(load_hier_checkpoint ?ctx hiers) ~save:(save_hier_checkpoint hiers)
    (hier_units hiers) recording

(* --- Record-while-sweep -------------------------------------------------- *)

(* Chunks from a producer that already holds immutable ones — Recording
   slabs sealing while the mutator runs — are broadcast by reference
   to [jobs] consumers.  Consumer [j] owns columns j, j+jobs,
   j+2*jobs, ...: a static strided partition, so every column sees the
   full stream in order. *)
let pipelined ~jobs ?(capacity = 8) t =
  let columns = t.columns in
  let n = Array.length columns in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    ((fun buf len -> access_chunk t buf 0 len), fun () -> ())
  else begin
    let fanout = Chunk.Fanout.create ~consumers:jobs ~capacity in
    let consume j () =
      let rec drain () =
        match Chunk.Fanout.pop fanout j with
        | None -> ()
        | Some (buf, len) ->
          let i = ref j in
          while !i < n do
            Cache.column_access_chunk columns.(!i) buf 0 len;
            i := !i + jobs
          done;
          drain ()
      in
      drain ()
    in
    let domains = Array.init jobs (fun j -> Domain.spawn (consume j)) in
    let deliver buf len = Chunk.Fanout.push fanout buf len in
    let finish () =
      Chunk.Fanout.close fanout;
      Array.iter Domain.join domains
    in
    (deliver, finish)
  end
