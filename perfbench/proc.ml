(** Clock, files and the served process: everything the workloads need
    from the operating system. *)

let now_ns = Pobs.Monotonic.now_ns
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6
let s_since t0 = float_of_int (now_ns () - t0) /. 1e9

let remove_db path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".journal"; path ^ ".vacuum" ]

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(** Database file plus its journal, in MiB. *)
let store_mib path =
  float_of_int (file_size path + file_size (path ^ ".journal")) /. 1048576.

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        match input ic buf 0 65536 with
        | 0 -> ()
        | n ->
            output oc buf 0 n;
            go ()
      in
      go ())

(* read to EOF: files under /proc report a length of 0 *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
      in
      go ())

let contains (hay : string) (needle : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(** Peak resident set of a process ("VmHWM" in its status), in MiB. *)
let peak_rss_mib (pid : string) : float =
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid)))
  with
  | Some l ->
      let kb =
        String.sub l 6 (String.length l - 6)
        |> String.map (fun c -> if c = '\t' then ' ' else c)
        |> String.split_on_char ' '
        |> List.filter (fun s -> s <> "")
      in
      float_of_string (List.hd kb) /. 1024.
  | None -> failwith "no VmHWM line"

(* ------------------------------------------------------------------ *)
(* The served process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; mutable port : int; mutable live : bool }

let live_servers : server list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(** Stop a server: SIGTERM (it traps it and drains), SIGKILL if it has
    not exited within five seconds; always reaped. *)
let stop (s : server) =
  if s.live then begin
    s.live <- false;
    live_servers := List.filter (fun x -> x != s) !live_servers;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 5. in
    let rec wait () =
      match waitpid_retry [ Unix.WNOHANG ] s.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let () = at_exit (fun () -> List.iter stop !live_servers)

(** Start [pdb serve FILE -p 0 --proto binary] with default settings and
    wait for its banner; returns the binary-protocol port. *)
let spawn ~pdb ~(db : string) ~(log : string) : server =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process pdb [| pdb; "serve"; db; "-p"; "0"; "--proto"; "binary" |] stdin_r out out
  in
  Unix.close out;
  Unix.close stdin_r;
  Unix.close stdin_w;
  let s = { pid; port = 0; live = true } in
  live_servers := s :: !live_servers;
  let marker = "binary protocol on " in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec await () =
    let text = read_file log in
    let port =
      let nh = String.length text and nm = String.length marker in
      let rec find i =
        if i + nm > nh then None
        else if String.sub text i nm = marker then
          let j = ref (i + nm) in
          while !j < nh && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
          if !j < nh then int_of_string_opt (String.sub text (i + nm) (!j - i - nm)) else None
        else find (i + 1)
      in
      find 0
    in
    match port with
    | Some p -> s.port <- p
    | None ->
        (match waitpid_retry [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            s.live <- false;
            failwith ("server exited before serving: " ^ text));
        if Unix.gettimeofday () > deadline then begin
          stop s;
          failwith "server did not come up within 60 s"
        end;
        Unix.sleepf 0.002;
        await ()
  in
  await ();
  s
