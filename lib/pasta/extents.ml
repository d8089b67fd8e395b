type t = int array list

let chunk_ints = 256

let empty = []

let length e = List.fold_left (fun n c -> n + (Array.length c / 2)) 0 e

let iter f e =
  List.iter
    (fun c ->
      for i = 0 to (Array.length c / 2) - 1 do
        f c.(2 * i) c.((2 * i) + 1)
      done)
    e

type builder = {
  mutable full : int array list;  (* newest first *)
  mutable cur : int array;
  mutable fill : int;
}

let builder () = { full = []; cur = [||]; fill = 0 }

let push b base limit =
  if b.fill = Array.length b.cur then begin
    if b.fill > 0 then b.full <- b.cur :: b.full;
    b.cur <- Array.make chunk_ints 0;
    b.fill <- 0
  end;
  b.cur.(b.fill) <- base;
  b.cur.(b.fill + 1) <- limit;
  b.fill <- b.fill + 2

let finish b =
  List.rev
    (if b.fill = 0 then b.full
     else if b.fill = chunk_ints then b.cur :: b.full
     else Array.sub b.cur 0 b.fill :: b.full)

let of_pairs l =
  let b = builder () in
  List.iter (fun (x, y) -> push b x y) l;
  finish b

let to_pairs e =
  let acc = ref [] in
  iter (fun x y -> acc := (x, y) :: !acc) e;
  List.rev !acc

let coalesce produce =
  let b = builder () in
  let have = ref false and cb = ref 0 and cl = ref 0 in
  produce (fun base limit ->
      if !have && base <= !cl then (if limit > !cl then cl := limit)
      else begin
        if !have then push b !cb !cl;
        have := true;
        cb := base;
        cl := limit
      end);
  if !have then push b !cb !cl;
  finish b

let merge (srcs : t array) f =
  let k = Array.length srcs in
  let rest = Array.copy srcs in
  let cur = Array.make k [||] and pos = Array.make k 0 in
  (* Point source [i] at its next chunk holding a whole pair. *)
  let rec load i =
    match rest.(i) with
    | [] -> false
    | c :: tl ->
        rest.(i) <- tl;
        if Array.length c >= 2 then begin
          cur.(i) <- c;
          pos.(i) <- 0;
          true
        end
        else load i
  in
  let heap = Array.make k 0 and hn = ref 0 in
  let key h =
    let i = heap.(h) in
    cur.(i).(pos.(i))
  in
  let rec sift_down j =
    let l = (2 * j) + 1 in
    if l < !hn then begin
      let c = if l + 1 < !hn && key (l + 1) < key l then l + 1 else l in
      if key c < key j then begin
        let t = heap.(j) in
        heap.(j) <- heap.(c);
        heap.(c) <- t;
        sift_down c
      end
    end
  in
  for i = 0 to k - 1 do
    if load i then begin
      heap.(!hn) <- i;
      incr hn
    end
  done;
  for j = (!hn / 2) - 1 downto 0 do
    sift_down j
  done;
  while !hn > 0 do
    let i = heap.(0) in
    let c = cur.(i) and p = pos.(i) in
    f c.(p) c.(p + 1);
    pos.(i) <- p + 2;
    if p + 3 >= Array.length c && not (load i) then begin
      decr hn;
      heap.(0) <- heap.(!hn)
    end;
    sift_down 0
  done
