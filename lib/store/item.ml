module Env = Mutps_mem.Env

let header_bytes = 8
let spin_backoff_cycles = 25
let atomic_limit = 8

type t = {
  mutable addr : int;
  mutable value : bytes;
  mutable version : int; (* odd = write in progress *)
  mutable contended : int;
  mutable san_obj : int; (* sanitizer sync object; -1 until first use *)
  mutable san_lo : int; (* registered shadow range, to re-register on move *)
  mutable san_hi : int;
}

let create slab ~value =
  let addr = Slab.alloc slab (header_bytes + Bytes.length value) in
  {
    addr;
    value = Bytes.copy value;
    version = 0;
    contended = 0;
    san_obj = -1;
    san_lo = 0;
    san_hi = 0;
  }

let addr t = t.addr
let size t = Bytes.length t.value
let total_bytes t = header_bytes + Bytes.length t.value
(* uncharged introspection for stats and tests, not simulated reads *)
let version t = t.version [@@lint.allow "R3"]
let locked t = t.version land 1 = 1 [@@lint.allow "R3"]
let peek t = t.value
let contended_acquires t = t.contended

(* Sanitizer model of the seqlock: the item is a sync object — readers and
   writers acquire at entry (each retry, to inherit a concurrent holder's
   release) and release at exit, mirroring the ordering the version
   protocol provides on real hardware.  The header word is a sync range
   (its CAS traffic is synchronization, not data) and the payload bytes
   are protected by the object, so raw stores bypassing [write] flag a
   lockset violation.  Lazy registration: [create] has no [Env]. *)
let san_init env t =
  if Env.sanitizing env then begin
    if t.san_obj < 0 then
      t.san_obj <- Env.sync_obj env ("item@" ^ string_of_int t.addr);
    let lo = t.addr and hi = t.addr + total_bytes t in
    if t.san_lo <> lo || t.san_hi <> hi then begin
      if t.san_hi > t.san_lo then begin
        Env.sync_range env ~lo:t.san_lo ~hi:(t.san_lo + header_bytes) ~on:false;
        Env.unprotect env ~lo:(t.san_lo + header_bytes) ~hi:t.san_hi
      end;
      Env.sync_range env ~lo ~hi:(lo + header_bytes) ~on:true;
      Env.protect env ~obj:t.san_obj ~lo:(lo + header_bytes) ~hi;
      t.san_lo <- lo;
      t.san_hi <- hi
    end
  end

let rec read_loop env t =
  Env.commit env;
  Env.assert_committed env "Item.read";
  Env.acquire env t.san_obj;
  let v1 = t.version in
  if v1 land 1 = 1 then begin
    (* writer in progress: re-poll the header *)
    if Env.tracing env then
      Env.instant env ~name:"seqlock.read_bounce"
        ~arg:("item@" ^ string_of_int t.addr);
    Env.load env ~addr:t.addr ~size:header_bytes;
    Env.compute env spin_backoff_cycles;
    read_loop env t
  end
  else begin
    (* speculative until the version validates: a read the protocol
       retries was never observed, so only successful reads enter the
       sanitizer's shadow map *)
    let addr = t.addr and size = total_bytes t in
    Env.load_speculative env ~addr ~size;
    Env.commit env;
    if t.version <> v1 then begin
      if Env.tracing env then
        Env.instant env ~name:"seqlock.read_bounce"
          ~arg:("item@" ^ string_of_int t.addr);
      Env.compute env spin_backoff_cycles;
      read_loop env t
    end
    else begin
      Env.note_read env ~addr ~size;
      Bytes.copy t.value
    end
  end

let read env t =
  Env.tagged env "Item.read" @@ fun () ->
  san_init env t;
  let v = read_loop env t in
  Env.release env t.san_obj;
  v

(* A retired item's version is negative (see [retire]); the read above
   validated it with nothing committed since, so this is the version the
   copy belongs to. *)
let read_live env t =
  let v = read env t in
  if t.version < 0 then None else Some v

let update_payload t value slab =
  let old_len = Bytes.length t.value and new_len = Bytes.length value in
  if Slab.class_of_size (header_bytes + old_len)
     <> Slab.class_of_size (header_bytes + new_len)
  then begin
    Slab.free slab ~addr:t.addr ~size:(header_bytes + old_len);
    t.addr <- Slab.alloc slab (header_bytes + new_len)
  end;
  t.value <- Bytes.copy value

let rec write_loop env t value slab ~live =
  Env.commit env;
  Env.assert_committed env "Item.write";
  Env.acquire env t.san_obj;
  if t.version land 1 = 1 then begin
    (* spin on the held lock with CAS: every failed attempt dirties the
       header line, invalidating the holder's copy — the cacheline
       ping-pong that makes contended critical sections stretch (§2.2.2) *)
    t.contended <- t.contended + 1;
    if Env.tracing env then
      Env.instant env ~name:"seqlock.write_contend"
        ~arg:("item@" ^ string_of_int t.addr);
    Env.store env ~addr:t.addr ~size:header_bytes;
    Env.compute env spin_backoff_cycles;
    write_loop env t value slab ~live
  end
  else if live && t.version < 0 then begin
    (* retired: the key is gone, so the caller must not write here *)
    Env.release env t.san_obj;
    false
  end
  else if Bytes.length value <= atomic_limit && size t <= atomic_limit then begin
    (* 8-byte values: single atomic store of header+data (same line) —
       exclusive by hardware, a degenerate critical section for the
       lockset *)
    Env.lock env t.san_obj;
    Env.store env ~addr:t.addr ~size:(header_bytes + Bytes.length value);
    update_payload t value slab;
    t.version <- t.version + 2;
    (* the atomic store is its own release: unlock before the commit
       yields, or a reader dispatched in the commit window would see the
       even version without the happens-before edge *)
    san_init env t;
    Env.unlock env t.san_obj;
    Env.commit env;
    true
  end
  else begin
    (* acquire: the CAS dirties the header line immediately *)
    Env.store env ~addr:t.addr ~size:header_bytes;
    t.version <- t.version + 1;
    Env.lock env t.san_obj;
    (* committing between the phases lets concurrent failed CASes dirty
       the header line mid-critical-section, so the release genuinely pays
       for the ping-pong — contended holds stretch with the crowd *)
    Env.commit env;
    (* payload copy *)
    Env.store env ~addr:(t.addr + header_bytes) ~size:(Bytes.length value);
    Env.commit env;
    (* release store *)
    Env.store env ~addr:t.addr ~size:header_bytes;
    Env.commit env;
    update_payload t value slab;
    t.version <- t.version + 1;
    san_init env t;
    Env.unlock env t.san_obj;
    true
  end

let write_as env t value slab ~live =
  Env.tagged env "Item.write" @@ fun () ->
  san_init env t;
  write_loop env t value slab ~live

let write env t value slab = ignore (write_as env t value slab ~live:false)
let write_live env t value slab = write_as env t value slab ~live:true

(* Deleting a key retires its item: an atomic OR sets the version's sign
   bit for good (writers only ever add to the version, and a writer in
   progress still ends on an even version), so a reference that outlived
   the index entry — the CR hot set — can tell the item is gone. *)
let retire env t =
  Env.tagged env "Item.retire" @@ fun () ->
  san_init env t;
  Env.commit env;
  Env.assert_committed env "Item.retire";
  Env.acquire env t.san_obj;
  Env.store env ~addr:t.addr ~size:header_bytes;
  t.version <- t.version lor min_int;
  Env.release env t.san_obj

(* share-nothing path: the owning thread is the only writer, so the
   version read needs no commit to observe other threads (the
   interprocedural R3 pass proves every call site commit-dominated) *)
let write_exclusive env t value slab =
  Env.tagged env "Item.write_exclusive" @@ fun () ->
  san_init env t;
  Env.acquire env t.san_obj;
  if t.version land 1 = 1 then
    invalid_arg "Item.write_exclusive: item is locked";
  Env.lock env t.san_obj;
  Env.store env ~addr:t.addr ~size:(header_bytes + Bytes.length value);
  update_payload t value slab;
  t.version <- t.version + 2;
  san_init env t;
  Env.unlock env t.san_obj;
  Env.commit env
