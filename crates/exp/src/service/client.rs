//! The `xbar submit` client for a running `xbar serve` daemon.
//!
//! One invocation sends one `xbar-svc/1` request and renders the reply.
//! For a waited submit, progress events go to stderr and the artifact —
//! exactly the bytes `xbar run <exp> --json` would print — goes to
//! stdout (or, with `--out`, is written atomically to a file), so the
//! client composes with pipes and `cmp` the same way `xbar run` does.
//!
//! A waited submit whose connection breaks re-sends its own request on a
//! new connection and follows that one to the end. The daemon answers a
//! `submit` by its content: from the artifact cache, by joining the
//! identical job still running, or by queueing it again, which resumes
//! from the job's shard checkpoints when a restarted daemon shares the
//! `--work-dir`. The client never follows a job id across connections:
//! every daemon numbers its jobs from 0, so an id from before a restart
//! may name another request's job after it.

use crate::atomic::write_atomic;
use crate::cli::{out, outln};
use crate::service::protocol::{Request, PROTOCOL};
use crate::shard::json::Json;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// How many consecutive re-sends of a waited submit may go unanswered
/// before the client gives up. The count restarts with every `submitted`
/// answer, so a long job behind a brief daemon bounce still completes;
/// 40 × 250 ms bounds a *continuous* outage at ~10 s.
const RECONNECT_ATTEMPTS: u32 = 40;
/// Pause before each re-send.
const RECONNECT_DELAY: Duration = Duration::from_millis(250);
/// How many re-sends may be answered `cache: miss` (the daemon no longer
/// had the job, so it queued the request again) before the client gives
/// up. Checkpoints in a shared `--work-dir` make each one a resume, not a
/// restart.
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
     xbar submit <experiment> [experiment flags...] [--wait [--out FILE]]\n  \
     xbar submit --status JOB | --result JOB [--out FILE] | --cancel JOB | --stats\n  \
     xbar submit --shutdown\n\n\
     The experiment name comes first; every flag the client does not\n\
     recognize is forwarded verbatim to the daemon, exactly as `xbar run`\n\
     would take it. Output-routing flags (--json/--out/--csv) stay on the\n\
     client side.\n\nclient flags:\n  \
     --connect ADDR   daemon address (default 127.0.0.1:7878)\n  \
     --wait           with a submit: stream progress (stderr) and print the\n                   \
     finished artifact to stdout, byte-identical to\n                   \
     `xbar run --json`\n  \
     --out FILE       with --wait or --result: write the artifact atomically\n                   \
     to FILE instead of stdout (anywhere else it is a usage error)\n  \
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
    // A flag that would do nothing is a usage error, not a silent no-op.
    if wait && !matches!(mode, Mode::Submit { .. }) {
        return Err(format!(
            "--wait follows a submit; {mode:?} does not take it"
        ));
    }
    if out.is_some() && !wait && !matches!(mode, Mode::ResultOf(_)) {
        return Err("--out needs a waited submit (--wait) or --result".to_owned());
    }
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

/// Why a reply could not be produced. The split matters for `--wait`: an
/// [`ReadError::Io`] failure means the *connection* died (the daemon may
/// be bouncing — re-send the request on a new one), while a
/// [`ReadError::Daemon`] error is the daemon answering clearly — retrying
/// the same request would loop forever on the same answer.
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
        None => out!("{artifact}"),
    }
    Ok(())
}

/// The stderr completion note. Keeps the coordinator counters visible so
/// scripts (and the resume smoke test) can see *how* the job ran — e.g.
/// that a resubmit after a daemon crash actually reused checkpoints.
fn describe_result(reply: &Reply) -> String {
    let cache = field_str(reply, "cache");
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

/// A string field of a reply, `unknown` when absent.
fn field_str<'a>(reply: &'a Reply, name: &str) -> &'a str {
    reply
        .doc
        .get(name)
        .and_then(Json::as_str)
        .unwrap_or("unknown")
}

/// The job id a reply names, `?` when absent.
fn job_of(reply: &Reply) -> String {
    reply
        .doc
        .get("job")
        .and_then(Json::as_u64)
        .map_or_else(|| "?".to_owned(), |j| j.to_string())
}

/// Connects to the daemon and sends one request; returns the reply lines.
fn send(addr: &str, request: &Request) -> Result<Lines<BufReader<TcpStream>>, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    writeln!(stream, "{}", request.render())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send to the daemon: {e}"))?;
    Ok(BufReader::new(stream).lines())
}

/// Sends one request on a new connection and reads its one reply.
fn ask(addr: &str, request: &Request) -> Result<Reply, String> {
    read_reply(&mut send(addr, request)?)
}

/// Prints one progress line for a waited job to stderr.
fn print_progress(reply: &Reply) {
    let field = |name: &str| reply.doc.get(name).and_then(Json::as_u64).unwrap_or(0);
    eprintln!(
        "xbar submit: job {} {} ({}/{} shards, {:.1}s)",
        job_of(reply),
        reply.doc.get("state").and_then(Json::as_str).unwrap_or("?"),
        field("shards_done"),
        field("shards"),
        field("elapsed_ms") as f64 / 1000.0
    );
}

fn run_submit(args: &SubmitArgs) -> Result<(), String> {
    let addr = args.connect.as_str();
    match &args.mode {
        Mode::Submit {
            experiment,
            args: exp_args,
        } => submit(
            args,
            &Request::Submit {
                experiment: experiment.clone(),
                args: exp_args.clone(),
                wait: args.wait,
            },
        ),
        Mode::ResultOf(id) => {
            let reply = ask(addr, &Request::ResultOf { job: *id })?;
            deliver_artifact(&reply, args.out.as_ref())?;
            eprintln!("xbar submit: result ({})", describe_result(&reply));
            Ok(())
        }
        Mode::Status(id) => print_reply_line(&ask(addr, &Request::Status { job: *id })?),
        Mode::Cancel(id) => {
            let _ = ask(addr, &Request::Cancel { job: *id })?;
            eprintln!("xbar submit: cancelled job {id}");
            Ok(())
        }
        Mode::Stats => print_reply_line(&ask(addr, &Request::Stats)?),
        Mode::Shutdown => {
            let _ = ask(addr, &Request::Shutdown)?;
            eprintln!("xbar submit: daemon is draining");
            Ok(())
        }
    }
}

/// Sends a submit and, when it waits, follows it to its artifact. A
/// connection that breaks after `submitted` is not an answer: the same
/// request is re-sent on a new connection ([`resend`]) and followed like
/// the first. A re-send answered `cache: miss` means the daemon had lost
/// the job and queued it again; at most [`MAX_RESUBMITS`] are tolerated.
fn submit(args: &SubmitArgs, request: &Request) -> Result<(), String> {
    let mut lines = send(&args.connect, request)?;
    let submitted = read_reply(&mut lines)?;
    let mut job = job_of(&submitted);
    eprintln!(
        "xbar submit: job {job} (cache {})",
        field_str(&submitted, "cache")
    );
    if !args.wait {
        return Ok(());
    }
    let mut resubmits: u32 = 0;
    loop {
        match follow(&mut lines) {
            Ok(result) => {
                deliver_artifact(&result, args.out.as_ref())?;
                eprintln!("xbar submit: result ({})", describe_result(&result));
                return Ok(());
            }
            // A daemon error is an answer; re-sending would get the same
            // one.
            Err(ReadError::Daemon(e)) => return Err(e),
            Err(ReadError::Io(lost)) => {
                eprintln!("xbar submit: lost the daemon ({lost}); reconnecting to follow job {job}")
            }
        }
        let (submitted, reconnected) = resend(&args.connect, request, &job)?;
        lines = reconnected;
        let next = job_of(&submitted);
        if field_str(&submitted, "cache") == "miss" {
            resubmits += 1;
            if resubmits > MAX_RESUBMITS {
                return Err(format!(
                    "job {job} vanished and {MAX_RESUBMITS} resubmit(s) did not settle"
                ));
            }
            eprintln!("xbar submit: daemon lost job {job}; resubmitted as job {next}");
        }
        job = next;
    }
}

/// Reads a waited submit's connection to its final line, printing each
/// `progress` event, and returns the `result` reply.
fn follow(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> Result<Reply, ReadError> {
    loop {
        let reply = read_reply_raw(lines)?;
        match reply.kind.as_str() {
            "progress" => print_progress(&reply),
            "result" => return Ok(reply),
            other => {
                return Err(ReadError::Daemon(format!(
                    "unexpected {other:?} response while waiting"
                )))
            }
        }
    }
}

/// Re-sends `request` on new connections, [`RECONNECT_DELAY`] apart, until
/// the daemon answers it; returns that answer and the connection to
/// follow. Gives up after [`RECONNECT_ATTEMPTS`] consecutive attempts
/// without an answer.
fn resend(
    addr: &str,
    request: &Request,
    job: &str,
) -> Result<(Reply, Lines<BufReader<TcpStream>>), String> {
    for _ in 0..RECONNECT_ATTEMPTS {
        std::thread::sleep(RECONNECT_DELAY);
        let Ok(mut lines) = send(addr, request) else {
            continue;
        };
        match read_reply_raw(&mut lines) {
            Ok(reply) => return Ok((reply, lines)),
            Err(ReadError::Daemon(e)) => return Err(e),
            Err(ReadError::Io(_)) => {}
        }
    }
    Err(format!(
        "gave up on job {job} after {RECONNECT_ATTEMPTS} consecutive failed reconnect attempts"
    ))
}

/// Reprints a reply verbatim (one compact JSON line) on stdout, so
/// `--stats` / `--status` compose with grep and jq-alikes.
fn print_reply_line(reply: &Reply) -> Result<(), String> {
    outln!("{}", reply.line);
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
        let result_to_file = parse(&["--result", "7", "--out", "F"]).expect("ok");
        assert_eq!(result_to_file.expect("args").out, Some(PathBuf::from("F")));
        for words in [
            &[][..],
            &["--stats", "--shutdown"][..],
            &["--stats", "table2"][..],
            &["--status", "soon"][..],
            &["--quick", "table2"][..],
            &["--connect"][..],
            // Flags that would do nothing: --out without --wait or
            // --result, --wait without a submit.
            &["table2", "--quick", "--circuits", "rd53", "--out", "F"][..],
            &["--stats", "--wait", "--out", "F"][..],
            &["--stats", "--wait"][..],
            &["--status", "7", "--out", "F"][..],
            &["--result", "7", "--wait"][..],
            &["--shutdown", "--wait"][..],
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
