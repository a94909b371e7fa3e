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

(* --- Replaying a recording, serially or across domains ----------------- *)

(* Each domain replays the whole recording into a dynamically-claimed
   subset of the columns: columns are independent simulators and the
   recording's slabs are read-only once complete, so there is no shared
   mutable state and the result is bit-identical to a serial run. *)
let run_into ~jobs t recording =
  let columns = t.columns in
  let n = Array.length columns in
  let jobs = max 1 (min jobs n) in
  let replay_column i =
    let col = columns.(i) in
    Recording.iter_chunks recording (fun buf len ->
        Cache.column_access_chunk col buf 0 len)
  in
  if jobs = 1 then
    for i = 0 to n - 1 do
      replay_column i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          replay_column i;
          loop ()
        end
      in
      loop ()
    in
    let domains =
      Array.init (jobs - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains
  end

let run_serial t recording = run_into ~jobs:1 t recording
let run_parallel ~jobs t recording = run_into ~jobs t recording

(* --- Attributed replay --------------------------------------------------- *)

(* Same work-stealing shape as [run_into]; each claimed cache gets a
   private cursor and profile, so the only state shared between
   domains is read-only (the recording's sealed slabs and the
   completed side table) or partitioned by cache index (the profile
   array, each slot written by exactly the domain that claimed it,
   before the join). *)
let run_attributed ?(jobs = 1) ?(sample_every = 1) ?heat_rows ?heat_cols
    ~addr_limit t table recording =
  if sample_every < 1 then
    invalid_arg "Sweep.run_attributed: sample_every must be >= 1";
  let caches = t.caches in
  let n = Array.length caches in
  let jobs = max 1 (min jobs n) in
  let events = Recording.length recording in
  let num_sites = Attr.num_sites table in
  let profiles =
    Array.init n (fun _ ->
        Attr.profile_create ?heat_rows ?heat_cols ~sample_every ~num_sites
          ~addr_limit ~events ())
  in
  let replay_cache i =
    let c = caches.(i) in
    let prof = profiles.(i) in
    let cur = Attr.cursor table in
    let base = ref 0 in
    let chunk_no = ref 0 in
    Recording.iter_chunks recording (fun buf len ->
        let b = !base in
        base := b + len;
        let cn = !chunk_no in
        chunk_no := cn + 1;
        prof.Attr.chunks_seen <- prof.Attr.chunks_seen + 1;
        if cn mod sample_every = 0 then begin
          prof.Attr.chunks_attributed <- prof.Attr.chunks_attributed + 1;
          Cache.access_chunk_attr c cur prof ~base:b buf 0 len
        end
        else Cache.access_chunk c buf 0 len)
  in
  if jobs = 1 then
    for i = 0 to n - 1 do
      replay_cache i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          replay_cache i;
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end;
  profiles

(* --- Checkpoint / resume ------------------------------------------------ *)

(* A checkpoint pins an in-flight replay: the number of events every
   cache has consumed (the cursor) plus a full [Cache.snapshot] of
   each cache.  Replay is deterministic and caches are independent, so
   restoring the snapshots and continuing from the cursor is
   bit-identical to never having stopped.  The file is written to a
   temp name and renamed so a crash mid-checkpoint can never leave a
   torn file where a resume would find it. *)

let checkpoint_magic = "SWPCKPT1"

let save_checkpoint t ~events ~cursor path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     let hdr = Bytes.create 24 in
     Bytes.set_int64_le hdr 0 (Int64.of_int cursor);
     Bytes.set_int64_le hdr 8 (Int64.of_int events);
     Bytes.set_int64_le hdr 16 (Int64.of_int (Array.length t.caches));
     output_string oc checkpoint_magic;
     output_bytes oc hdr;
     let buf = Buffer.create (1 lsl 16) in
     Array.iter
       (fun c ->
         Buffer.clear buf;
         Cache.snapshot c buf;
         Buffer.output_buffer oc buf)
       t.caches;
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load_checkpoint ?ctx t ~events path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail fmt =
        Printf.ksprintf
          (fun msg -> failwith (with_ctx ctx ("Sweep.load_checkpoint: " ^ msg)))
          fmt
      in
      let magic =
        try really_input_string ic 8
        with End_of_file -> fail "%s is not a sweep checkpoint" path
      in
      if magic <> checkpoint_magic then fail "%s is not a sweep checkpoint" path;
      let hdr = Bytes.create 24 in
      (try really_input ic hdr 0 24
       with End_of_file -> fail "%s has a truncated header" path);
      let cursor = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let ck_events = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let ncaches = Int64.to_int (Bytes.get_int64_le hdr 16) in
      if ck_events <> events then
        fail "%s was taken over %d events but the recording has %d" path
          ck_events events;
      if cursor < 0 || cursor > events then
        fail "%s has a corrupt cursor %d (recording has %d events)" path
          cursor events;
      if ncaches <> Array.length t.caches then
        fail "%s holds %d caches but the sweep has %d" path ncaches
          (Array.length t.caches);
      let body_bytes = in_channel_length ic - pos_in ic in
      let body = Bytes.create body_bytes in
      really_input ic body 0 body_bytes;
      let pos = ref 0 in
      (try
         Array.iter (fun c -> pos := Cache.restore c body !pos) t.caches
       with Invalid_argument msg -> fail "%s: %s" path msg);
      (* Certificates are derived, not checkpointed: the restored
         members start with none. *)
      Array.iter Cache.column_reset t.columns;
      if !pos <> body_bytes then
        fail "%s has %d trailing bytes" path (body_bytes - !pos);
      cursor)

(* Replay the event range [from_, until) of a recording into one
   column.  Slabs are fixed-size, so the range maps to per-chunk
   offsets handled by [Cache.column_access_chunk]. *)
let replay_range col recording ~from_ ~until =
  let base = ref 0 in
  Recording.iter_chunks recording (fun buf len ->
      let b = !base in
      base := b + len;
      let lo = max from_ b in
      let hi = min until (b + len) in
      if lo < hi then Cache.column_access_chunk col buf (lo - b) (hi - lo))

let replay_range_all t recording ~jobs ~from_ ~until =
  let columns = t.columns in
  let n = Array.length columns in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    for i = 0 to n - 1 do
      replay_range columns.(i) recording ~from_ ~until
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          replay_range columns.(i) recording ~from_ ~until;
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end

let default_checkpoint_events = 1 lsl 22

let run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint t
    recording =
  let events = Recording.length recording in
  let every = max 1 checkpoint_every in
  let cursor = ref 0 in
  if Sys.file_exists checkpoint then
    cursor := load_checkpoint ?ctx t ~events checkpoint;
  (match progress with Some f -> f !cursor | None -> ());
  (* Epochs with a barrier at each checkpoint: within an epoch the
     caches progress independently (possibly on worker domains), but
     a checkpoint is only taken when every cache has consumed exactly
     [cursor] events, so one cursor describes them all. *)
  while !cursor < events do
    let epoch_end = min events (!cursor + every) in
    replay_range_all t recording ~jobs ~from_:!cursor ~until:epoch_end;
    cursor := epoch_end;
    save_checkpoint t ~events ~cursor:!cursor checkpoint;
    match progress with Some f -> f !cursor | None -> ()
  done

(* --- Hierarchy sweeps --------------------------------------------------- *)

(* The cache-grid machinery above, over fused multi-level hierarchies:
   hierarchies are independent simulators and a sealed recording is
   read-only, so the same dynamic work-claim gives per-hierarchy
   results bit-identical to a serial run.  The hierarchies must be
   fused ([Hier.create ~fused:true]): a hooked oracle's closures have
   no business running on worker domains. *)

let hier_run_into ~jobs hiers recording =
  let n = Array.length hiers in
  let jobs = max 1 (min jobs n) in
  let replay_hier i =
    let h = hiers.(i) in
    Recording.iter_chunks recording (fun buf len ->
        Hier.access_chunk h buf 0 len)
  in
  if jobs = 1 then
    for i = 0 to n - 1 do
      replay_hier i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          replay_hier i;
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end

let hier_run_serial hiers recording = hier_run_into ~jobs:1 hiers recording
let hier_run_parallel ~jobs hiers recording = hier_run_into ~jobs hiers recording

(* Checkpoint framing identical to the cache-grid files — own magic,
   same 24-byte header, [Hier.snapshot] bodies, temp+rename. *)

let hier_checkpoint_magic = "SWHCKPT1"

let save_hier_checkpoint hiers ~events ~cursor path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     let hdr = Bytes.create 24 in
     Bytes.set_int64_le hdr 0 (Int64.of_int cursor);
     Bytes.set_int64_le hdr 8 (Int64.of_int events);
     Bytes.set_int64_le hdr 16 (Int64.of_int (Array.length hiers));
     output_string oc hier_checkpoint_magic;
     output_bytes oc hdr;
     let buf = Buffer.create (1 lsl 16) in
     Array.iter
       (fun h ->
         Buffer.clear buf;
         Hier.snapshot h buf;
         Buffer.output_buffer oc buf)
       hiers;
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load_hier_checkpoint ?ctx hiers ~events path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            failwith (with_ctx ctx ("Sweep.load_hier_checkpoint: " ^ msg)))
          fmt
      in
      let magic =
        try really_input_string ic 8
        with End_of_file -> fail "%s is not a hierarchy checkpoint" path
      in
      if magic <> hier_checkpoint_magic then
        fail "%s is not a hierarchy checkpoint" path;
      let hdr = Bytes.create 24 in
      (try really_input ic hdr 0 24
       with End_of_file -> fail "%s has a truncated header" path);
      let cursor = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let ck_events = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let nhiers = Int64.to_int (Bytes.get_int64_le hdr 16) in
      if ck_events <> events then
        fail "%s was taken over %d events but the recording has %d" path
          ck_events events;
      if cursor < 0 || cursor > events then
        fail "%s has a corrupt cursor %d (recording has %d events)" path
          cursor events;
      if nhiers <> Array.length hiers then
        fail "%s holds %d hierarchies but the sweep has %d" path nhiers
          (Array.length hiers);
      let body_bytes = in_channel_length ic - pos_in ic in
      let body = Bytes.create body_bytes in
      really_input ic body 0 body_bytes;
      let pos = ref 0 in
      (try Array.iter (fun h -> pos := Hier.restore h body !pos) hiers
       with Invalid_argument msg -> fail "%s: %s" path msg);
      if !pos <> body_bytes then
        fail "%s has %d trailing bytes" path (body_bytes - !pos);
      cursor)

let hier_replay_range h recording ~from_ ~until =
  let base = ref 0 in
  Recording.iter_chunks recording (fun buf len ->
      let b = !base in
      base := b + len;
      let lo = max from_ b in
      let hi = min until (b + len) in
      if lo < hi then Hier.access_chunk h buf (lo - b) (hi - lo))

let hier_replay_range_all hiers recording ~jobs ~from_ ~until =
  let n = Array.length hiers in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    for i = 0 to n - 1 do
      hier_replay_range hiers.(i) recording ~from_ ~until
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          hier_replay_range hiers.(i) recording ~from_ ~until;
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains
  end

let hier_run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint
    hiers recording =
  let events = Recording.length recording in
  let every = max 1 checkpoint_every in
  let cursor = ref 0 in
  if Sys.file_exists checkpoint then
    cursor := load_hier_checkpoint ?ctx hiers ~events checkpoint;
  (match progress with Some f -> f !cursor | None -> ());
  (* Same epoch barrier as [run_resumable]: one cursor describes every
     hierarchy when the checkpoint is taken. *)
  while !cursor < events do
    let epoch_end = min events (!cursor + every) in
    hier_replay_range_all hiers recording ~jobs ~from_:!cursor ~until:epoch_end;
    cursor := epoch_end;
    save_hier_checkpoint hiers ~events ~cursor:!cursor checkpoint;
    match progress with Some f -> f !cursor | None -> ()
  done

(* --- Live production with parallel consumption ------------------------- *)

(* Worker [j] owns columns j, j+jobs, j+2*jobs, ...: a static strided
   partition, so every column sees the full stream in order. *)
let strided_worker columns ~jobs fanout j () =
  let n = Array.length columns in
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

let live_parallel ~jobs ?chunk_events ?(capacity = 8) t =
  let columns = t.columns in
  let jobs = max 1 (min jobs (Array.length columns)) in
  if jobs = 1 then chunked_sink ?chunk_events t
  else begin
    let fanout = Chunk.Fanout.create ~consumers:jobs ~capacity in
    let domains =
      Array.init jobs (fun j ->
          Domain.spawn (strided_worker columns ~jobs fanout j))
    in
    let sink, flush =
      Chunk.producer ?chunk_events (fun buf len ->
          Chunk.Fanout.push fanout buf len)
    in
    let finish () =
      flush ();
      Chunk.Fanout.close fanout;
      Array.iter Domain.join domains
    in
    (sink, finish)
  end

(* Chunk-level variant of [live_parallel] for producers that already
   have immutable chunks in hand — Recording slabs sealing while the
   mutator runs.  No per-event sink, no copy: each delivered chunk is
   broadcast by reference. *)
let pipelined ~jobs ?(capacity = 8) t =
  let columns = t.columns in
  let jobs = max 1 (min jobs (Array.length columns)) in
  if jobs = 1 then
    ((fun buf len -> access_chunk t buf 0 len), fun () -> ())
  else begin
    let fanout = Chunk.Fanout.create ~consumers:jobs ~capacity in
    let domains =
      Array.init jobs (fun j ->
          Domain.spawn (strided_worker columns ~jobs fanout j))
    in
    let deliver buf len = Chunk.Fanout.push_shared fanout buf len in
    let finish () =
      Chunk.Fanout.close fanout;
      Array.iter Domain.join domains
    in
    (deliver, finish)
  end
