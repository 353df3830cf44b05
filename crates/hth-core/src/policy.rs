//! The HTH security policy (paper §4), written in the CLIPS syntax the
//! paper's Appendix A uses and evaluated by `secpert-engine`.
//!
//! Three rule families:
//!
//! * **Execution flow** — `execve` with a hardcoded name (Low), a
//!   hardcoded name executed rarely and late (Medium), or a name that
//!   originated from a socket (High).
//! * **Resource abuse** — many processes created (Low), created fast
//!   (Medium).
//! * **Information flow** — writes graded by the data's sources, the
//!   sources' identifier origins, and the target's identifier origin
//!   (user-supplied vs hardcoded vs remote).
//!
//! Trusted shared objects (`libc.so`, `ld-linux.so` by default) are
//! filtered out by the `filter_binary` native, reproducing both the
//! paper's noise reduction and its deliberate false negative (ElmExploit
//! §8.3.1: `system()`'s `/bin/sh` string lives in trusted libc).

/// Tunable thresholds and trust lists for the policy. The whole config
/// keys the compiled-policy memo: configs equal in every field share
/// one compiled policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Frequency strictly below this counts as "rarely executed".
    pub rare_frequency: i64,
    /// Virtual time strictly above this counts as "started a while ago".
    pub long_time: i64,
    /// Process count at/above this is "high" (Low warning).
    pub proc_count_high: i64,
    /// Fork rate (per window) at/above this is "very frequent" (Medium).
    pub proc_rate_high: i64,
    /// Heap bytes at/above this warn Low (§10 memory-abuse extension).
    pub mem_high: i64,
    /// Heap bytes at/above this warn Medium.
    pub mem_very_high: i64,
    /// Binaries whose hardcoded data is trusted (substring match).
    pub trusted_binaries: Vec<String>,
    /// Socket names that are trusted (substring match).
    pub trusted_sockets: Vec<String>,
    /// Additional CLIPS policy text loaded on top of the standard
    /// policy, in order. This travels with the config, so analyst-pool
    /// engines (including respawns after a quarantine) get the same
    /// custom rules as a directly constructed Secpert.
    pub extra_rules: Vec<String>,
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig {
            rare_frequency: 2,
            long_time: 100,
            proc_count_high: 10,
            proc_rate_high: 20,
            mem_high: 1 << 20,
            mem_very_high: 16 << 20,
            trusted_binaries: vec!["libc.so".into(), "ld-linux.so".into()],
            trusted_sockets: Vec::new(),
            extra_rules: Vec::new(),
        }
    }
}

/// The policy source: templates, globals and rules.
pub const POLICY_CLIPS: &str = r#"
; ---------------------------------------------------------------------------
; Templates: the two event shapes Harrier asserts (paper §6.1.2).
; ---------------------------------------------------------------------------

(deftemplate system_call_access
  (slot pid)
  (slot system_call_name)
  (slot resource_name)
  (slot resource_type)
  (multislot resource_origin_name)
  (multislot resource_origin_type)
  (slot time (default 0))
  (slot frequency (default 1))
  (slot address (default "0"))
  (slot proc_count (default 0))
  (slot proc_rate (default 0))
  (slot mem_total (default 0))
  (slot server_address (default nil))
  (multislot server_origin_name)
  (multislot server_origin_type))

(deftemplate data_transfer
  (slot pid)
  (slot system_call_name)
  (multislot source_name)
  (multislot source_type)
  (multislot data_origin_name)
  (multislot data_origin_type)
  (slot target_name)
  (slot target_type)
  (multislot target_origin_name)
  (multislot target_origin_type)
  (slot time (default 0))
  (slot frequency (default 1))
  (slot address (default "0"))
  (slot executable_content (default FALSE))
  (slot server_address (default nil))
  (multislot server_origin_name)
  (multislot server_origin_type))

; ---------------------------------------------------------------------------
; Globals: thresholds (overridden from PolicyConfig after load).
; ---------------------------------------------------------------------------

(defglobal ?*RARE_FREQUENCY* = 2)
(defglobal ?*LONG_TIME* = 100)
(defglobal ?*PROC_COUNT_HIGH* = 10)
(defglobal ?*PROC_RATE_HIGH* = 20)
(defglobal ?*MEM_HIGH* = 1048576)
(defglobal ?*MEM_VERY_HIGH* = 16777216)

; ---------------------------------------------------------------------------
; Execution flow (paper §4.1, Appendix A.2).
; ---------------------------------------------------------------------------

(defrule check_execve "execve of a hardcoded or socket-derived program name"
  ?e <- (system_call_access (system_call_name SYS_execve)
          (pid ?pid) (resource_name ?name)
          (resource_origin_name $?origin_name)
          (resource_origin_type $?origin_type)
          (time ?time) (frequency ?freq) (address ?addr))
  (test (or (not (empty-list (filter_binary $?origin_type $?origin_name)))
            (not (empty-list (filter_socket $?origin_type $?origin_name)))))
  =>
  (bind ?suspicious_binaries (filter_binary $?origin_type $?origin_name))
  (bind ?suspicious_sockets (filter_socket $?origin_type $?origin_name))
  (bind ?warning 1)
  (if (and (< ?freq ?*RARE_FREQUENCY*) (> ?time ?*LONG_TIME*)) then
      (bind ?warning 2))
  (if (not (empty-list ?suspicious_sockets)) then
      (bind ?warning 3))
  (bind ?msg (str-cat "Found SYS_execve call (" ?name ")"))
  (if (not (empty-list ?suspicious_binaries)) then
      (bind ?msg (str-cat ?msg " | (" ?name ") originated from (" ?suspicious_binaries ")"))
   else
      (bind ?msg (str-cat ?msg " | (" ?name ") originated from a socket (" ?suspicious_sockets ")")))
  (if (and (< ?freq ?*RARE_FREQUENCY*) (> ?time ?*LONG_TIME*)) then
      (bind ?msg (str-cat ?msg " | This code is rarely executed...")))
  (printout t (severity-text ?warning) " " ?msg crlf)
  (warn ?warning check_execve ?pid ?time ?msg))

; ---------------------------------------------------------------------------
; Resource abuse (paper §4.2).
; ---------------------------------------------------------------------------

(defrule check_clone_count "many new processes created"
  ?e <- (system_call_access (system_call_name SYS_clone|SYS_fork)
          (pid ?pid) (proc_count ?count) (time ?time))
  (test (>= ?count ?*PROC_COUNT_HIGH*))
  =>
  (bind ?msg "Found several SYS_clone calls | This call was frequent")
  (printout t (severity-text 1) " " ?msg crlf)
  (warn 1 check_clone_count ?pid ?time ?msg))

(defrule check_clone_rate "new processes created at a high rate"
  ?e <- (system_call_access (system_call_name SYS_clone|SYS_fork)
          (pid ?pid) (proc_rate ?rate) (time ?time))
  (test (>= ?rate ?*PROC_RATE_HIGH*))
  =>
  (bind ?msg "Found several SYS_clone calls | This call was very frequent in a short period of time")
  (printout t (severity-text 2) " " ?msg crlf)
  (warn 2 check_clone_rate ?pid ?time ?msg))

; Memory abuse (paper §10 item 4: "new rules to support different types
; of resource abuse such as memory"): a process that keeps growing its
; heap is draining the OS, like Trojan.Vundo (§2.1 example 4).
(defrule check_memory_abuse "large amount of memory allocated"
  ?e <- (system_call_access (system_call_name SYS_brk)
          (pid ?pid) (mem_total ?total) (time ?time))
  (test (>= ?total ?*MEM_HIGH*))
  =>
  (bind ?warning 1)
  (if (>= ?total ?*MEM_VERY_HIGH*) then (bind ?warning 2))
  (bind ?msg (str-cat "Found several SYS_brk calls | The process has allocated "
                      ?total " bytes of memory"))
  (printout t (severity-text ?warning) " " ?msg crlf)
  (warn ?warning check_memory_abuse ?pid ?time ?msg))

; ---------------------------------------------------------------------------
; Information flow (paper §4.3).
; ---------------------------------------------------------------------------

; Hardcoded (binary) data written into a file whose name is also
; hardcoded — the dropper pattern (grabem, vixie crontab, trojaned ttt).
(defrule flow_binary_to_file "hardcoded data written to a hardcoded-name file"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type FILE)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time) (frequency ?freq))
  (test (not (empty-list (filter_binary $?st $?sn))))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?srcs (filter_binary $?st $?sn))
  (bind ?name_srcs (filter_binary $?tot $?ton))
  (bind ?msg (str-cat "Found Write call to " ?tname
     " | The Data written to this file is originated from the BINARY:(" ?srcs ")"
     " | Moreover, it seems that the name of the file: " ?tname
     " originated from a BINARY: (" ?name_srcs ")"))
  (if (and (< ?freq ?*RARE_FREQUENCY*) (> ?time ?*LONG_TIME*)) then
      (bind ?msg (str-cat ?msg " | This code is rarely executed...")))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_binary_to_file ?pid ?time ?msg))

; File contents flowing to a socket (paper §4.3 rule 1: exfiltration).
(defrule flow_file_to_socket "file data written to a socket"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (data_origin_type $?dot) (data_origin_name $?don)
          (target_name ?tname) (target_type SOCKET)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (not (empty-list (filter_file $?st $?sn))))
  =>
  (bind ?src_files (filter_file $?st $?sn))
  (bind ?file_hardcoded (filter_binary $?dot $?don))
  (bind ?file_user (filter_user $?dot $?don))
  (bind ?sock_hardcoded (filter_binary $?tot $?ton))
  (bind ?sock_user (filter_user $?tot $?ton))
  (bind ?warning 0)
  (if (and (not (empty-list ?file_user)) (not (empty-list ?sock_hardcoded))) then
      (bind ?warning 1))
  (if (and (not (empty-list ?file_hardcoded)) (not (empty-list ?sock_user))) then
      (bind ?warning 1))
  (if (and (not (empty-list ?file_hardcoded)) (not (empty-list ?sock_hardcoded))) then
      (bind ?warning 3))
  (if (> ?warning 0) then
      (bind ?msg (str-cat "Found Write call Data Flowing From: " ?src_files
                          " To: " ?tname))
      (if (not (empty-list ?sock_hardcoded)) then
          (bind ?msg (str-cat ?msg " | target (client) socket-name was hardcoded in: ("
                              ?sock_hardcoded ")")))
      (if (not (empty-list ?file_hardcoded)) then
          (bind ?msg (str-cat ?msg " | source filename was hardcoded in: ("
                              ?file_hardcoded ")")))
      (printout t (severity-text ?warning) " " ?msg crlf)
      (warn ?warning flow_file_to_socket ?pid ?time ?msg)))

; Socket data flowing into a file (the download / command-injection
; pattern: pma writes attacker bytes into its shell FIFO). Graded by the
; socket's own address origin: attacker-determined (hardcoded address or
; an accepted connection) into a fixed file is High; a user-directed
; download into a fixed file is Low; user-named files are fine.
(defrule flow_socket_to_file "remote data written to a hardcoded-name file"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (data_origin_type $?dot) (data_origin_name $?don)
          (target_name ?tname) (target_type FILE)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time) (frequency ?freq))
  (test (not (empty-list (filter_sockets_in $?st $?sn))))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?src_socks (filter_sockets_in $?st $?sn))
  (bind ?name_srcs (filter_binary $?tot $?ton))
  (bind ?warning 3)
  (if (and (not (empty-list (filter_user $?dot $?don)))
           (empty-list (filter_binary $?dot $?don))
           (empty-list (filter_sockets_in $?dot $?don))) then
      (bind ?warning 1))
  (bind ?msg (str-cat "Found Write call Data Flowing From: " ?src_socks " To: " ?tname
                      " | target file-name was hardcoded in FILE: (" ?name_srcs ")"))
  (if (and (< ?freq ?*RARE_FREQUENCY*) (> ?time ?*LONG_TIME*)) then
      (bind ?msg (str-cat ?msg " | This code is rarely executed...")))
  (printout t (severity-text ?warning) " " ?msg crlf)
  (warn ?warning flow_socket_to_file ?pid ?time ?msg))

; Any write whose target file *name* arrived over the network: a remote
; party chose where the data lands (High regardless of the data).
(defrule flow_to_file_remote_name "write to a file whose name came from a socket"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (target_name ?tname) (target_type FILE)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (not (empty-list (filter_socket $?tot $?ton))))
  =>
  (bind ?msg (str-cat "Found Write call to " ?tname
                      " | the name of the file originated from a socket: ("
                      (filter_socket $?tot $?ton) ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_to_file_remote_name ?pid ?time ?msg))

; File-to-file copies, graded by both identifier origins.
(defrule flow_file_to_file "file data copied into another file"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (data_origin_type $?dot) (data_origin_name $?don)
          (target_name ?tname) (target_type FILE)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (not (empty-list (filter_file $?st $?sn))))
  =>
  (bind ?src_files (filter_file $?st $?sn))
  (bind ?file_hardcoded (filter_binary $?dot $?don))
  (bind ?file_user (filter_user $?dot $?don))
  (bind ?tgt_hardcoded (filter_binary $?tot $?ton))
  (bind ?tgt_user (filter_user $?tot $?ton))
  (bind ?warning 0)
  (if (and (not (empty-list ?file_user)) (not (empty-list ?tgt_hardcoded))) then
      (bind ?warning 1))
  (if (and (not (empty-list ?file_hardcoded)) (not (empty-list ?tgt_user))) then
      (bind ?warning 1))
  (if (and (not (empty-list ?file_hardcoded)) (not (empty-list ?tgt_hardcoded))) then
      (bind ?warning 2))
  (if (> ?warning 0) then
      (bind ?msg (str-cat "Found Write call Data Flowing From: " ?src_files
                          " To: " ?tname))
      (printout t (severity-text ?warning) " " ?msg crlf)
      (warn ?warning flow_file_to_file ?pid ?time ?msg)))

; Hardware-derived values written to a hardcoded-name file (paper §4.3
; rule 2 — the TCP-wrappers fingerprinting pattern).
(defrule flow_hardware_to_file "hardware information written to a hardcoded-name file"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type FILE)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (member$ HARDWARE $?st))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?msg (str-cat "Found Write call to " ?tname
                      " | The Data written to this file is originated from the HARDWARE"
                      " | Moreover, it seems that the name of the file: " ?tname
                      " originated from a BINARY: (" (filter_binary $?tot $?ton) ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_hardware_to_file ?pid ?time ?msg))

; Hardware-derived values sent to a hardcoded socket (extension of the
; same rule — exfiltrating machine identity).
(defrule flow_hardware_to_socket "hardware information sent to a hardcoded socket"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type SOCKET)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (member$ HARDWARE $?st))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?msg (str-cat "Found Write call to socket " ?tname
                      " | The Data written is originated from the HARDWARE"
                      " | the socket address was hardcoded in: ("
                      (filter_binary $?tot $?ton) ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_hardware_to_socket ?pid ?time ?msg))

; User input captured into a hardcoded-name file — the keylogger /
; password-grabber pattern (grabem). The 2006 prototype's dataflow was
; too incomplete to catch this (paper §8.3.4); the complete tracker does.
(defrule flow_user_to_file "user input written to a hardcoded-name file"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type FILE)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (member$ USER_INPUT $?st))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?msg (str-cat "Found Write call to " ?tname
                      " | The Data written originated from USER INPUT"
                      " | and the name of the file: " ?tname
                      " originated from a BINARY: (" (filter_binary $?tot $?ton) ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_user_to_file ?pid ?time ?msg))

; User input sent to a hardcoded socket — the password stealer.
(defrule flow_user_to_socket "user input sent to a hardcoded socket"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type SOCKET)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (member$ USER_INPUT $?st))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?msg (str-cat "Found Write call to socket " ?tname
                      " | The Data written originated from USER INPUT"
                      " | the socket address was hardcoded in: ("
                      (filter_binary $?tot $?ton) ")"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_user_to_socket ?pid ?time ?msg))

; Hardcoded data sent to a hardcoded socket (pwsafe-style beacon): Low —
; plenty of trusted programs send fixed protocol bytes to fixed hosts.
(defrule flow_binary_to_socket "hardcoded data sent to a hardcoded socket"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type SOCKET)
          (target_origin_type $?tot) (target_origin_name $?ton)
          (time ?time))
  (test (not (empty-list (filter_binary $?st $?sn))))
  (test (not (empty-list (filter_binary $?tot $?ton))))
  =>
  (bind ?msg (str-cat "Found Write call Data Flowing From: " (filter_binary $?st $?sn)
                      " To: " ?tname
                      " | target (client) socket-name was hardcoded in: ("
                      (filter_binary $?tot $?ton) ")"))
  (printout t (severity-text 1) " " ?msg crlf)
  (warn 1 flow_binary_to_socket ?pid ?time ?msg))

; Any transfer on an accepted connection whose *listening* address was
; hardcoded: the program is a backdoor server (pma).
(defrule check_backdoor_server "transfer over a server socket with a hardcoded address"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_name $?sn) (target_name ?tname)
          (server_address ?srv&~nil)
          (server_origin_type $?sot) (server_origin_name $?son)
          (time ?time) (frequency ?freq))
  (test (not (empty-list (filter_binary $?sot $?son))))
  =>
  (bind ?msg (str-cat "Found " ?sys " call Data Flowing From: " ?sn " To: " ?tname
                      " | This program has opened a socket for remote connections."
                      " i.e. it is a server with the address: " ?srv
                      " | the server address was hardcoded in: ("
                      (filter_binary $?sot $?son) ")"))
  (if (and (< ?freq ?*RARE_FREQUENCY*) (> ?time ?*LONG_TIME*)) then
      (bind ?msg (str-cat ?msg " | This code is rarely executed...")))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 check_backdoor_server ?pid ?time ?msg))

; Content analysis (paper §10 item 5: "analyze the data downloaded …
; if we can analyze and detect what the type of a downloaded file is"):
; remote bytes that *look executable* written into any file.
(defrule flow_executable_download "executable content downloaded to disk"
  ?e <- (data_transfer (pid ?pid) (system_call_name ?sys)
          (source_type $?st) (source_name $?sn)
          (target_name ?tname) (target_type FILE)
          (executable_content TRUE)
          (time ?time))
  (test (not (empty-list (filter_sockets_in $?st $?sn))))
  =>
  (bind ?msg (str-cat "Found Write call to " ?tname
                      " | The data downloaded from ("
                      (filter_sockets_in $?st $?sn)
                      ") is an executable"))
  (printout t (severity-text 3) " " ?msg crlf)
  (warn 3 flow_executable_download ?pid ?time ?msg))

; ---------------------------------------------------------------------------
; Process introspection and signals (second-generation surface).
; ---------------------------------------------------------------------------

; A program reading its own /proc state (status, cmdline) is inspecting
; the process environment — classic anti-debug / monitor-detection
; behaviour in Trojans. Low severity on its own; the flow rules escalate
; if the content then leaves over the network.
(defrule check_proc_introspection "program reads its own /proc state"
  ?e <- (system_call_access (system_call_name SYS_open)
          (pid ?pid) (resource_name ?name) (resource_type PROC)
          (time ?time))
  =>
  (bind ?msg (str-cat "Found SYS_open call (" ?name ") | the program is inspecting its own process state through /proc"))
  (printout t (severity-text 1) " " ?msg crlf)
  (warn 1 check_proc_introspection ?pid ?time ?msg))

; Signals sent to other processes: benign tools do this too, but a
; Trojan killing a sibling (watchdog, rival malware, monitor) is a
; common pattern — surface it at Low severity.
(defrule check_process_kill "signal sent to another process"
  ?e <- (system_call_access (system_call_name SYS_kill)
          (pid ?pid) (resource_name ?name) (time ?time))
  =>
  (bind ?msg (str-cat "Found SYS_kill call (" ?name ")"))
  (printout t (severity-text 1) " " ?msg crlf)
  (warn 1 check_process_kill ?pid ?time ?msg))

; ---------------------------------------------------------------------------
; Cleanup: events are transient; drop them once every rule had its chance.
; ---------------------------------------------------------------------------

(defrule cleanup_system_call_access
  (declare (salience -100))
  ?f <- (system_call_access)
  =>
  (retract ?f))

(defrule cleanup_data_transfer
  (declare (salience -100))
  ?f <- (data_transfer)
  =>
  (retract ?f))
"#;
