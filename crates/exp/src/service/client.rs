//! The `xbar submit` client for a running `xbar serve` daemon.
//!
//! One invocation sends one `xbar-svc/1` request and renders the reply.
//! For a waited submit, progress events go to stderr and the artifact —
//! exactly the bytes `xbar run <exp> --json` would print — goes to
//! stdout (or, with `--out`, is written atomically to a file), so the
//! client composes with pipes and `cmp` the same way `xbar run` does.

use crate::atomic::write_atomic;
use crate::service::protocol::{Request, PROTOCOL};
use crate::shard::json::Json;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// How many consecutive failed reconnect attempts a waited submit
/// tolerates before giving up. The counter resets every time the daemon
/// answers, so a long job behind a brief daemon bounce still completes;
/// 40 × 250 ms bounds a *continuous* outage at ~10 s.
const RECONNECT_ATTEMPTS: u32 = 40;
/// Pause between reconnect attempts.
const RECONNECT_DELAY: Duration = Duration::from_millis(250);
/// How many times a vanished job (daemon restarted with fresh queue
/// state) is resubmitted before the client gives up. Checkpoints in a
/// shared `--work-dir` make each resubmit a resume, not a restart.
const MAX_RESUBMITS: u32 = 3;

/// What one `xbar submit` invocation asks the daemon to do.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    Submit {
        experiment: String,
        args: Vec<String>,
    },
    Status(u64),
    ResultOf(u64),
    Cancel(u64),
    Stats,
    Shutdown,
}

#[derive(Debug)]
struct SubmitArgs {
    connect: String,
    wait: bool,
    out: Option<PathBuf>,
    mode: Mode,
}

fn submit_usage() -> String {
    "xbar submit: client for a running `xbar serve` daemon\n\n\
     usage:\n  \
     xbar submit <experiment> [experiment flags...] [--wait] [--out FILE]\n  \
     xbar submit --status JOB | --result JOB | --cancel JOB | --stats | --shutdown\n\n\
     The experiment name comes first; every flag the client does not\n\
     recognize is forwarded verbatim to the daemon, exactly as `xbar run`\n\
     would take it. Output-routing flags (--json/--out/--csv) stay on the\n\
     client side.\n\nclient flags:\n  \
     --connect ADDR   daemon address (default 127.0.0.1:7878)\n  \
     --wait           stream progress (stderr) and print the finished\n                   \
     artifact to stdout, byte-identical to `xbar run --json`\n  \
     --out FILE       with --wait: write the artifact atomically to FILE\n                   \
     instead of stdout\n  \
     --status JOB     report a job's state\n  \
     --result JOB     print a finished job's artifact to stdout\n  \
     --cancel JOB     cancel a queued job\n  \
     --stats          print the daemon's counters (one JSON line)\n  \
     --shutdown       drain and stop the daemon"
        .to_owned()
}

fn parse_submit_args(argv: Vec<String>) -> Result<Option<SubmitArgs>, String> {
    let mut connect = "127.0.0.1:7878".to_owned();
    let mut wait = false;
    let mut out = None;
    let mut mode: Option<Mode> = None;
    let mut experiment: Option<String> = None;
    let mut forwarded: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let job = |flag: &str, text: String| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag}: expected a job id, got {text:?}"))
    };
    let mut set_mode = |m: Mode| -> Result<(), String> {
        match &mode {
            None => {
                mode = Some(m);
                Ok(())
            }
            Some(prior) => Err(format!("conflicting modes: {prior:?} and {m:?}")),
        }
    };
    while let Some(token) = it.next() {
        match token.as_str() {
            "--connect" => connect = value(&token, &mut it)?,
            "--wait" => wait = true,
            "--out" => out = Some(PathBuf::from(value(&token, &mut it)?)),
            "--status" => set_mode(Mode::Status(job(&token, value(&token, &mut it)?)?))?,
            "--result" => set_mode(Mode::ResultOf(job(&token, value(&token, &mut it)?)?))?,
            "--cancel" => set_mode(Mode::Cancel(job(&token, value(&token, &mut it)?)?))?,
            "--stats" => set_mode(Mode::Stats)?,
            "--shutdown" => set_mode(Mode::Shutdown)?,
            "--help" | "-h" => return Ok(None),
            _ if experiment.is_none() && !token.starts_with('-') => experiment = Some(token),
            _ if experiment.is_some() => forwarded.push(token),
            other => {
                return Err(format!(
                    "the experiment name must come before its flags (got {other:?} first); \
                     try --help"
                ))
            }
        }
    }
    let mode = match (mode, experiment) {
        (Some(mode), None) => {
            if !forwarded.is_empty() {
                return Err(format!("{:?} does not take experiment flags", mode));
            }
            mode
        }
        (Some(mode), Some(exp)) => {
            return Err(format!("conflicting modes: {mode:?} and submit {exp:?}"))
        }
        (None, Some(experiment)) => Mode::Submit {
            experiment,
            args: forwarded,
        },
        (None, None) => return Err("need an experiment name (or a query flag); try --help".into()),
    };
    Ok(Some(SubmitArgs {
        connect,
        wait,
        out,
        mode,
    }))
}

/// One parsed response line (keeps the raw line for verbatim reprinting).
struct Reply {
    kind: String,
    doc: Json,
    line: String,
}

/// Why a reply could not be produced. The split matters for `--wait`
/// hardening: an [`ReadError::Io`] failure means the *connection* died
/// (the daemon may be bouncing — reconnect and keep following the job),
/// while a [`ReadError::Daemon`] error is the daemon answering clearly —
/// retrying the same request would loop forever on the same answer.
enum ReadError {
    /// The connection broke (closed, reset, unparseable stream).
    Io(String),
    /// The daemon replied with an `error` line.
    Daemon(String),
}

fn read_reply_raw(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<Reply, ReadError> {
    let line = lines
        .next()
        .ok_or_else(|| ReadError::Io("connection closed by the daemon".to_owned()))?
        .map_err(|e| ReadError::Io(format!("cannot read from the daemon: {e}")))?;
    let doc = Json::parse(&line)
        .map_err(|e| ReadError::Io(format!("unparseable response {line:?}: {e}")))?;
    match doc.get("svc").and_then(Json::as_str) {
        Some(PROTOCOL) => {}
        _ => return Err(ReadError::Io(format!("not an {PROTOCOL} response: {line}"))),
    }
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| ReadError::Io(format!("response without a type: {line}")))?
        .to_owned();
    if kind == "error" {
        let message = doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("unspecified error");
        return Err(ReadError::Daemon(message.to_owned()));
    }
    Ok(Reply { kind, doc, line })
}

fn read_reply(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> Result<Reply, String> {
    read_reply_raw(lines).map_err(|e| match e {
        ReadError::Io(m) | ReadError::Daemon(m) => m,
    })
}

/// Routes a finished artifact: atomically to `--out`, else raw to stdout.
fn deliver_artifact(reply: &Reply, out: Option<&PathBuf>) -> Result<(), String> {
    let artifact = reply
        .doc
        .get("artifact")
        .and_then(Json::as_str)
        .ok_or("result response carries no artifact")?;
    match out {
        Some(path) => {
            write_atomic(path, artifact.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("xbar submit: wrote {}", path.display());
        }
        None => {
            print!("{artifact}");
            let _ = std::io::stdout().flush();
        }
    }
    Ok(())
}

/// The stderr completion note. Keeps the coordinator counters visible so
/// scripts (and the resume smoke test) can see *how* the job ran — e.g.
/// that a resubmit after a daemon crash actually reused checkpoints.
fn describe_result(reply: &Reply) -> String {
    let cache = reply
        .doc
        .get("cache")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let counter = |name: &str| reply.doc.get(name).and_then(Json::as_u64);
    let mut text = match (counter("spawned"), counter("reused")) {
        (Some(spawned), Some(reused)) => format!(
            "cache {cache}; spawned {spawned}, reused {reused}, retries {}, timeouts {}",
            counter("retries").unwrap_or(0),
            counter("timeouts").unwrap_or(0)
        ),
        _ => format!("cache {cache}"),
    };
    // Per-host dispatch attribution, when the job ran through the
    // multi-host launcher.
    if let Some(hosts) = reply.doc.get("hosts").and_then(Json::as_arr) {
        let parts: Vec<String> = hosts
            .iter()
            .filter_map(|h| {
                let name = h.get("host").and_then(Json::as_str)?;
                let dispatched = h.get("dispatched").and_then(Json::as_u64).unwrap_or(0);
                Some(format!("{name}:{dispatched}"))
            })
            .collect();
        if !parts.is_empty() {
            text.push_str("; hosts ");
            text.push_str(&parts.join(" "));
        }
    }
    text
}

/// Opens a connection to the daemon, returning the write half and a line
/// iterator over the read half.
fn connect(addr: &str) -> Result<(TcpStream, Lines<BufReader<TcpStream>>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let writer = stream
        .try_clone()
        .map_err(|e| format!("cannot split the connection: {e}"))?;
    Ok((writer, BufReader::new(stream).lines()))
}

fn send_request(writer: &mut TcpStream, request: &Request) -> Result<(), String> {
    writeln!(writer, "{}", request.render())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot send to the daemon: {e}"))
}

/// Prints one progress/status line for a waited job to stderr.
fn print_progress(job: u64, reply: &Reply) {
    let field = |name: &str| reply.doc.get(name).and_then(Json::as_u64).unwrap_or(0);
    eprintln!(
        "xbar submit: job {job} {} ({}/{} shards, {:.1}s)",
        reply.doc.get("state").and_then(Json::as_str).unwrap_or("?"),
        field("shards_done"),
        field("shards"),
        field("elapsed_ms") as f64 / 1000.0
    );
}

fn run_submit(args: &SubmitArgs) -> Result<(), String> {
    let (mut writer, mut lines) = connect(&args.connect)?;
    let send = send_request;

    match &args.mode {
        Mode::Submit {
            experiment,
            args: exp_args,
        } => {
            send(
                &mut writer,
                &Request::Submit {
                    experiment: experiment.clone(),
                    args: exp_args.clone(),
                    wait: args.wait,
                },
            )?;
            let submitted = read_reply(&mut lines)?;
            let job = submitted.doc.get("job").and_then(Json::as_u64);
            let cache = submitted
                .doc
                .get("cache")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            eprintln!(
                "xbar submit: job {} (cache {cache})",
                job.map_or_else(|| "?".to_owned(), |j| j.to_string())
            );
            if !args.wait {
                return Ok(());
            }
            loop {
                match read_reply_raw(&mut lines) {
                    Ok(reply) => match reply.kind.as_str() {
                        "progress" => {
                            print_progress(
                                reply.doc.get("job").and_then(Json::as_u64).unwrap_or(0),
                                &reply,
                            );
                        }
                        "result" => {
                            deliver_artifact(&reply, args.out.as_ref())?;
                            eprintln!("xbar submit: result ({})", describe_result(&reply));
                            return Ok(());
                        }
                        other => {
                            return Err(format!("unexpected {other:?} response while waiting"))
                        }
                    },
                    // A daemon error is an answer; retrying would get the
                    // same one.
                    Err(ReadError::Daemon(e)) => return Err(e),
                    // A broken connection is not: the job keeps running
                    // (or resumes from checkpoints after a daemon bounce),
                    // so reconnect and keep following it.
                    Err(ReadError::Io(io)) => {
                        let Some(id) = job else { return Err(io) };
                        eprintln!(
                            "xbar submit: lost the daemon ({io}); reconnecting to follow job {id}"
                        );
                        return resume_wait(args, experiment, exp_args, id);
                    }
                }
            }
        }
        Mode::ResultOf(id) => {
            send(&mut writer, &Request::ResultOf { job: *id })?;
            let reply = read_reply(&mut lines)?;
            deliver_artifact(&reply, args.out.as_ref())?;
            eprintln!("xbar submit: result ({})", describe_result(&reply));
            Ok(())
        }
        Mode::Status(id) => {
            send(&mut writer, &Request::Status { job: *id })?;
            print_reply_line(&read_reply(&mut lines)?)
        }
        Mode::Cancel(id) => {
            send(&mut writer, &Request::Cancel { job: *id })?;
            let _ = read_reply(&mut lines)?;
            eprintln!("xbar submit: cancelled job {id}");
            Ok(())
        }
        Mode::Stats => {
            send(&mut writer, &Request::Stats)?;
            print_reply_line(&read_reply(&mut lines)?)
        }
        Mode::Shutdown => {
            send(&mut writer, &Request::Shutdown)?;
            let _ = read_reply(&mut lines)?;
            eprintln!("xbar submit: daemon is draining");
            Ok(())
        }
    }
}

/// Follows a job across daemon outages: reconnect (bounded consecutive
/// attempts), poll `status`, fetch the artifact with `result` once done.
/// If the daemon comes back with fresh queue state ("no such job" — it
/// was restarted, not just unreachable), the original submit is resent
/// up to [`MAX_RESUBMITS`] times; shard checkpoints in a shared work dir
/// turn each resubmit into a resume. The delivered bytes are the same
/// cached artifact an uninterrupted `--wait` would have printed.
fn resume_wait(
    args: &SubmitArgs,
    experiment: &str,
    exp_args: &[String],
    mut job: u64,
) -> Result<(), String> {
    let mut failures: u32 = 0;
    let mut resubmits: u32 = 0;
    let mut polls: u32 = 0;
    loop {
        failures += 1;
        if failures > RECONNECT_ATTEMPTS {
            return Err(format!(
                "gave up on job {job} after {RECONNECT_ATTEMPTS} consecutive failed \
                 reconnect attempts"
            ));
        }
        std::thread::sleep(RECONNECT_DELAY);
        let Ok((mut writer, mut lines)) = connect(&args.connect) else {
            continue;
        };
        if send_request(&mut writer, &Request::Status { job }).is_err() {
            continue;
        }
        match read_reply_raw(&mut lines) {
            Err(ReadError::Io(_)) => continue,
            Err(ReadError::Daemon(e)) if e.contains("no such job") => {
                // The daemon restarted with a fresh queue. Resubmit the
                // original request; a shared work dir resumes from the
                // dead job's checkpoints, and a cached artifact is an
                // instant hit either way.
                resubmits += 1;
                if resubmits > MAX_RESUBMITS {
                    return Err(format!(
                        "job {job} vanished and {MAX_RESUBMITS} resubmit(s) did not settle"
                    ));
                }
                let request = Request::Submit {
                    experiment: experiment.to_owned(),
                    args: exp_args.to_vec(),
                    wait: false,
                };
                if send_request(&mut writer, &request).is_err() {
                    continue;
                }
                match read_reply_raw(&mut lines) {
                    Ok(reply) => {
                        if let Some(new_id) = reply.doc.get("job").and_then(Json::as_u64) {
                            eprintln!(
                                "xbar submit: daemon lost job {job}; resubmitted as job {new_id}"
                            );
                            job = new_id;
                            failures = 0;
                        }
                    }
                    Err(ReadError::Daemon(e)) => return Err(e),
                    Err(ReadError::Io(_)) => {}
                }
            }
            Err(ReadError::Daemon(e)) => return Err(e),
            Ok(status) => {
                // The daemon answered: whatever happens next, this was
                // not a failed attempt.
                failures = 0;
                match status.doc.get("state").and_then(Json::as_str) {
                    Some("done") => {
                        if send_request(&mut writer, &Request::ResultOf { job }).is_err() {
                            continue;
                        }
                        match read_reply_raw(&mut lines) {
                            Ok(result) => {
                                deliver_artifact(&result, args.out.as_ref())?;
                                eprintln!("xbar submit: result ({})", describe_result(&result));
                                return Ok(());
                            }
                            Err(ReadError::Daemon(e)) => return Err(e),
                            Err(ReadError::Io(_)) => continue,
                        }
                    }
                    Some(state @ ("failed" | "cancelled")) => {
                        return Err(format!(
                            "job {job} {state}: {}",
                            status
                                .doc
                                .get("error")
                                .and_then(Json::as_str)
                                .unwrap_or("no details")
                        ));
                    }
                    _ => {
                        // Throttle to roughly the daemon's own progress
                        // cadence instead of one line per 250 ms poll.
                        if polls.is_multiple_of(4) {
                            print_progress(job, &status);
                        }
                        polls = polls.wrapping_add(1);
                    }
                }
            }
        }
    }
}

/// Reprints a reply verbatim (one compact JSON line) on stdout, so
/// `--stats` / `--status` compose with grep and jq-alikes.
fn print_reply_line(reply: &Reply) -> Result<(), String> {
    println!("{}", reply.line);
    Ok(())
}

/// `xbar submit`: parses flags, performs one request against the daemon,
/// and returns the process exit code (0 ok, 1 runtime/daemon error,
/// 2 usage).
#[must_use]
pub fn submit_main(argv: Vec<String>) -> i32 {
    crate::cli::run_verb(
        "xbar submit",
        submit_usage,
        parse_submit_args(argv),
        |args| run_submit(&args).map_err(crate::experiment::ExpError::Failed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Option<SubmitArgs>, String> {
        parse_submit_args(words.iter().map(|s| (*s).to_owned()).collect())
    }

    #[test]
    fn experiment_flags_forward_verbatim_and_client_flags_do_not() {
        let args = parse(&[
            "table2",
            "--quick",
            "--seed",
            "9",
            "--connect",
            "127.0.0.1:9999",
            "--wait",
            "--circuits",
            "rd53",
            "--out",
            "/tmp/a.json",
        ])
        .expect("parses")
        .expect("not help");
        assert_eq!(args.connect, "127.0.0.1:9999");
        assert!(args.wait);
        assert_eq!(args.out, Some(PathBuf::from("/tmp/a.json")));
        let Mode::Submit {
            experiment,
            args: forwarded,
        } = args.mode
        else {
            panic!("submit mode");
        };
        assert_eq!(experiment, "table2");
        assert_eq!(
            forwarded,
            ["--quick", "--seed", "9", "--circuits", "rd53"],
            "client flags consumed, experiment flags untouched"
        );
    }

    #[test]
    fn query_modes_parse_and_conflicts_are_usage_errors() {
        assert_eq!(
            parse(&["--stats"]).expect("ok").expect("args").mode,
            Mode::Stats
        );
        assert_eq!(
            parse(&["--status", "7"]).expect("ok").expect("args").mode,
            Mode::Status(7)
        );
        assert_eq!(
            parse(&["--result", "7"]).expect("ok").expect("args").mode,
            Mode::ResultOf(7)
        );
        assert_eq!(
            parse(&["--cancel", "0"]).expect("ok").expect("args").mode,
            Mode::Cancel(0)
        );
        assert!(parse(&["--help"]).expect("ok").is_none());
        for words in [
            &[][..],
            &["--stats", "--shutdown"][..],
            &["--stats", "table2"][..],
            &["--status", "soon"][..],
            &["--quick", "table2"][..],
            &["--connect"][..],
        ] {
            assert!(parse(words).is_err(), "{words:?} must fail");
        }
    }

    #[test]
    fn connecting_to_a_dead_daemon_is_a_runtime_error() {
        // Port 1 on localhost is essentially never listening; the client
        // must fail cleanly (CI uses this as its readiness probe).
        let code = submit_main(
            ["--stats", "--connect", "127.0.0.1:1"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        assert_eq!(code, 1);
    }
}
