(* Buckets are indexed by gain + range. Linked lists are intrusive:
   next.(v) / prev.(v) hold vertex ids, -1 terminates; head.(b) is the
   first vertex of bucket b or -1. prev.(v) = -2 - b marks v as the head
   of bucket b (so removal needs no special casing on ids). *)

type t = {
  range : int;
  head : int array; (* 2 * range + 1 buckets *)
  next : int array;
  prev : int array;
  key : int array; (* current gain of present vertices *)
  present : bool array;
  mutable max_idx : int; (* highest bucket that may be non-empty; -1 if empty *)
  mutable count : int;
}

let create ~capacity ~range =
  if capacity < 0 || range < 0 then invalid_arg "Gain_buckets.create";
  {
    range;
    head = Array.make ((2 * range) + 1) (-1);
    next = Array.make capacity (-1);
    prev = Array.make capacity (-1);
    key = Array.make capacity 0;
    present = Array.make capacity false;
    max_idx = -1;
    count = 0;
  }

let bucket_of t gain =
  if gain < -t.range || gain > t.range then invalid_arg "Gain_buckets: gain out of range";
  gain + t.range

let mem t v = t.present.(v)

let gain_of t v =
  if not t.present.(v) then invalid_arg "Gain_buckets.gain_of: absent";
  t.key.(v)

let cardinal t = t.count

let insert t v gain =
  if t.present.(v) then invalid_arg "Gain_buckets.insert: already present";
  let b = bucket_of t gain in
  let h = t.head.(b) in
  t.next.(v) <- h;
  t.prev.(v) <- -2 - b;
  if h >= 0 then t.prev.(h) <- v;
  t.head.(b) <- v;
  t.key.(v) <- gain;
  t.present.(v) <- true;
  t.count <- t.count + 1;
  if b > t.max_idx then t.max_idx <- b

let remove t v =
  if not t.present.(v) then invalid_arg "Gain_buckets.remove: absent";
  let nxt = t.next.(v) and prv = t.prev.(v) in
  if prv <= -2 then begin
    let b = -2 - prv in
    t.head.(b) <- nxt;
    if nxt >= 0 then t.prev.(nxt) <- prv
  end
  else begin
    t.next.(prv) <- nxt;
    if nxt >= 0 then t.prev.(nxt) <- prv
  end;
  t.present.(v) <- false;
  t.count <- t.count - 1

let update t v gain =
  if not t.present.(v) then invalid_arg "Gain_buckets.update: absent";
  if t.key.(v) <> gain then begin
    remove t v;
    insert t v gain
  end

let settle_max t =
  while t.max_idx >= 0 && t.head.(t.max_idx) < 0 do
    t.max_idx <- t.max_idx - 1
  done

let max_gain t =
  settle_max t;
  if t.max_idx < 0 then None else Some (t.max_idx - t.range)

let pop_max t =
  settle_max t;
  if t.max_idx < 0 then None
  else begin
    let v = t.head.(t.max_idx) in
    let g = t.max_idx - t.range in
    remove t v;
    Some (v, g)
  end

let iter_desc t ~f =
  settle_max t;
  let b = ref t.max_idx in
  let stop = ref false in
  while (not !stop) && !b >= 0 do
    let v = ref t.head.(!b) in
    while (not !stop) && !v >= 0 do
      (match f !v (!b - t.range) with `Stop -> stop := true | `Continue -> ());
      v := t.next.(!v)
    done;
    decr b
  done
