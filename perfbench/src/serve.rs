//! `serve_closed_loop`: the `dmt-serve` daemon as a subprocess on
//! loopback, its cache prefilled with a hot set (the 27 Table 3 jobs at
//! the run seed), driven by closed-loop clients — one connection each,
//! one job at a time: `submit`, `status` until done, then `result`.
//! The run is split into segments, each with its own set-up and daemon,
//! a hot phase (2 clients repeating hot jobs) and a fresh phase (the 27
//! Table 3 pairs at new seeds, one at a time, which simulate and store).
//! One timed operation is one submit→result hot job; the fresh phases
//! give `sim_cycles_per_s`.

use crate::layers;
use crate::span::{Span, Tracer};
use crate::stats::{beyond, median, mix, ms, peak_rss_mb, percentile, Rng};
use crate::table3::{self, PaperGap};
use crate::{Ctx, Outcome, ScratchDir};
use dmt_runner::{JobOutcome, JobSpec, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: u64 = 2;
/// Segments per run, each with its own set-up (`setup_s` is their
/// median), daemon, hot phase and fresh phase.
const SEGMENTS: usize = 7;
/// Pause between `status` polls of a job that is not done yet.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// The reported tail percentile of the submit→result latency.
const TAIL_PCT: f64 = 99.0;
/// Longest wait for any one daemon response or for the daemon to exit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `dmt-serve` child process.
struct Daemon {
    child: Option<Child>,
    addr: String,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port and waits for its
    /// `listening on` line.
    fn boot(bin: &Path, cache_dir: &Path, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--cache")
            .arg(cache_dir)
            .arg("--threads")
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            log: None,
        };
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading daemon log: {e}"))?;
            if let Some(rest) = line.strip_prefix("[dmt-serve] listening on ") {
                daemon.addr = rest.split(' ').next().unwrap_or_default().to_owned();
                break;
            }
        }
        if daemon.addr.is_empty() {
            return Err("dmt-serve exited before listening".into());
        }
        // Keep draining the log so the daemon never blocks on stderr.
        daemon.log = Some(std::thread::spawn(move || {
            lines.map_while(Result::ok).for_each(drop)
        }));
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Sends `drain` and waits for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        self.connect()?.call(r#"{"verb":"drain"}"#)?;
        let mut child = self.child.take().expect("daemon running");
        let deadline = Instant::now() + IO_TIMEOUT;
        let status = loop {
            match child
                .try_wait()
                .map_err(|e| format!("waiting for dmt-serve: {e}"))?
            {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("dmt-serve did not exit after drain".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("dmt-serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// One client connection: a request line out, a response line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("configuring socket: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, request: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("dmt-serve connection: {e}");
        self.writer.write_all(request.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line).map_err(io)? == 0 {
            return Err("dmt-serve closed the connection".into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    fn call_json(&mut self, request: &str) -> Result<Json, String> {
        let line = self.call(request)?;
        Json::parse(&line).map_err(|e| format!("bad response {line:?}: {e}"))
    }
}

fn submit_line(spec: &JobSpec) -> String {
    format!(
        r#"{{"verb":"submit","job":{{"bench":"{}","arch":"{}","seed":{}}}}}"#,
        spec.bench,
        spec.arch.key(),
        spec.seed
    )
}

fn hash_line(verb: &str, spec: &JobSpec) -> String {
    format!(
        r#"{{"verb":"{verb}","job_hash":"{:016x}"}}"#,
        spec.job_hash()
    )
}

/// Checks a `result` response against an in-process outcome of the
/// same job hash: the served entry must decode to identical stats.
fn verify_result(line: &str, spec: &JobSpec, want: &JobOutcome) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("{spec}: bad result response: {e}"))?;
    let artifact = doc
        .get("artifact")
        .ok_or_else(|| format!("{spec}: result without artifact: {line}"))?;
    match dmt_runner::cache::decode_entry(&artifact.render(), spec) {
        Some(got) if got == *want => Ok(()),
        Some(_) => Err(format!(
            "{spec}: served stats differ from the in-process run"
        )),
        None => Err(format!("{spec}: served entry does not decode")),
    }
}

/// One job through the daemon: `submit` (honouring `retry_after_ms`
/// refusals), `status` until done, `result`.
struct JobRun {
    /// The `result` response line.
    line: String,
    /// Submit → `done`, and submit → result, client-observed.
    done_ms: f64,
    latency_ms: f64,
    /// `status` requests sent.
    polls: u64,
    /// Refused `submit`s.
    rejections: u64,
    /// The daemon's executor time from `status`, if it executed the job.
    wall_ms: Option<u64>,
}

impl JobRun {
    fn requests(&self) -> u64 {
        self.rejections + 1 + self.polls + 1
    }
}

fn run_job(conn: &mut Conn, spec: &JobSpec, t: &mut Tracer, id: u64) -> Result<JobRun, String> {
    let start = Instant::now();
    let root = t.begin("serve.request", id);
    let submit = submit_line(spec);
    let mut rejections = 0;
    loop {
        let resp = t.time("serve.submit", id, || conn.call_json(&submit))?;
        if resp.get("ok") == Some(&Json::Bool(true)) {
            break;
        }
        let Some(retry) = resp.get("retry_after_ms").and_then(Json::as_u64) else {
            return Err(format!("{spec}: submit refused: {}", resp.render_compact()));
        };
        rejections += 1;
        t.time("client.poll_wait", id, || {
            std::thread::sleep(Duration::from_millis(retry))
        });
    }
    let (polls, wall_ms) = wait_done(conn, spec, t, id)?;
    let done_ms = ms(start.elapsed());
    let line = t.time("serve.result", id, || conn.call(&hash_line("result", spec)))?;
    t.end(root);
    Ok(JobRun {
        line,
        done_ms,
        latency_ms: ms(start.elapsed()),
        polls,
        rejections,
        wall_ms,
    })
}

/// One fresh job, verified after the timed window.
struct Fresh {
    spec: JobSpec,
    result: String,
    /// Client-observed submit → `done` time.
    done_ms: f64,
    /// The daemon's executor time from `status`: `wall_ms`, which is
    /// whole milliseconds rounded down, plus half a millisecond, so the
    /// error of a sum is about zero on average and at most 0.5 ms a job.
    exec_ms: f64,
}

#[derive(Default)]
struct ClientLog {
    /// Submit→result ms of the untraced and of the traced hot jobs.
    hot_ms: Vec<f64>,
    hot_traced_ms: Vec<f64>,
    jobs: u64,
    requests: u64,
    rejections: u64,
}

/// The hot set of one segment and its expected `result` lines (each
/// verified against the in-process outcome during set-up).
struct Hot<'a> {
    specs: &'a [JobSpec],
    lines: HashMap<u64, String>,
}

/// Submits `specs` in one request, waits until every one is done and
/// verifies each result against `want`; returns the verified lines.
fn prefill(
    daemon: &Daemon,
    specs: &[JobSpec],
    want: &[JobOutcome],
) -> Result<HashMap<u64, String>, String> {
    let mut conn = daemon.connect()?;
    let jobs: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                r#"{{"bench":"{}","arch":"{}","seed":{}}}"#,
                s.bench,
                s.arch.key(),
                s.seed
            )
        })
        .collect();
    let resp = conn.call_json(&format!(
        r#"{{"verb":"submit","jobs":[{}]}}"#,
        jobs.join(",")
    ))?;
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("prefill submit refused: {}", resp.render_compact()));
    }
    let mut lines = HashMap::new();
    for (spec, want) in specs.iter().zip(want) {
        wait_done(&mut conn, spec, &mut Tracer::disabled(), 0)?;
        let line = conn.call(&hash_line("result", spec))?;
        verify_result(&line, spec, want)?;
        lines.insert(spec.job_hash(), line);
    }
    Ok(lines)
}

/// Polls `status` until the job is done; returns (polls, wall_ms).
fn wait_done(
    conn: &mut Conn,
    spec: &JobSpec,
    tr: &mut Tracer,
    id: u64,
) -> Result<(u64, Option<u64>), String> {
    let request = hash_line("status", spec);
    let mut polls = 0;
    loop {
        let resp = tr.time("serve.status", id, || conn.call_json(&request))?;
        polls += 1;
        match resp.get("state").and_then(Json::as_str) {
            Some("done") => return Ok((polls, resp.get("wall_ms").and_then(Json::as_u64))),
            Some("queued" | "running" | "retrying") => {
                tr.time("client.poll_wait", id, || std::thread::sleep(POLL_INTERVAL));
            }
            _ => return Err(format!("{spec}: status {}", resp.render_compact())),
        }
    }
}

/// One closed-loop client of a segment's hot phase, until `deadline`:
/// repeats of the hot set, drawn from the seed.
fn client(
    daemon: &Daemon,
    ctx: &Ctx,
    id_base: u64,
    hot: &Hot,
    deadline: Instant,
    tr: &mut Tracer,
) -> Result<ClientLog, String> {
    let mut conn = daemon.connect()?;
    let mut rng = Rng::new(ctx.seed ^ id_base ^ 0x7365_7276);
    let mut log = ClientLog::default();
    let mut off = Tracer::disabled();
    while Instant::now() < deadline {
        let spec = &hot.specs[rng.below(hot.specs.len() as u64) as usize];
        let traced = ctx.trace && log.jobs % 2 == 0;
        let t = if traced { &mut *tr } else { &mut off };
        let job = run_job(&mut conn, spec, t, id_base | log.jobs)?;
        if hot.lines.get(&spec.job_hash()) != Some(&job.line) {
            return Err(format!(
                "{spec}: result differs from the verified hot-set result"
            ));
        }
        log.jobs += 1;
        log.requests += job.requests();
        log.rejections += job.rejections;
        if traced {
            log.hot_traced_ms.push(job.latency_ms);
        } else {
            log.hot_ms.push(job.latency_ms);
        }
    }
    Ok(log)
}

/// A segment's fresh phase: each job submitted alone on an otherwise
/// idle daemon, so the daemon's execution time is the engines' and the
/// cache store's, not contention with the hot clients.
fn fresh_phase(daemon: &Daemon, specs: &[JobSpec]) -> Result<(Vec<Fresh>, u64, u64, u64), String> {
    let mut conn = daemon.connect()?;
    let (mut fresh, mut requests, mut rejections, mut polls) = (Vec::new(), 0, 0, 0);
    for spec in specs {
        let job = run_job(&mut conn, spec, &mut Tracer::disabled(), 0)?;
        requests += job.requests();
        rejections += job.rejections;
        polls += job.polls;
        let wall_ms = job
            .wall_ms
            .ok_or_else(|| format!("{spec}: fresh job was not executed by the daemon"))?;
        fresh.push(Fresh {
            spec: spec.clone(),
            result: job.line,
            done_ms: job.done_ms,
            exec_ms: wall_ms as f64 + 0.5,
        });
    }
    Ok((fresh, requests, rejections, polls))
}

/// Each segment's fresh jobs: the Table 3 (benchmark, machine) pairs in
/// a seeded order, each at a seed of its own drawn from the run seed.
fn fresh_jobs(seed: u64, seg: usize, hot_specs: &[JobSpec]) -> Vec<JobSpec> {
    let tag = seed ^ 0x6672_6573_6800 ^ ((seg as u64) << 40);
    let mut order: Vec<usize> = (0..hot_specs.len()).collect();
    Rng::new(tag).shuffle(&mut order);
    order
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let base = &hot_specs[k];
            let fresh_seed = 1_000_000_000 + mix(tag ^ 1 ^ ((i as u64) << 8)) % 1_000_000_000;
            JobSpec::new(base.bench.clone(), base.arch, base.cfg, fresh_seed)
        })
        .collect()
}

fn counter(metrics: &Json, group: &str, key: &str) -> u64 {
    metrics
        .get(group)
        .and_then(|g| g.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let bin = ctx
        .serve_bin
        .clone()
        .ok_or("serve_closed_loop needs --serve-bin PATH (run.sh passes it)")?;
    let mut out = Outcome::default();
    let benches = dmt_kernels::suite::all();
    let hot_specs = table3::jobs(ctx.seed);
    let fresh_specs: Vec<Vec<JobSpec>> = (0..SEGMENTS)
        .map(|seg| fresh_jobs(ctx.seed, seg, &hot_specs))
        .collect();
    let base = ctx.out_dir.join(format!("serve-{}", std::process::id()));
    let _base = ScratchDir::new(base.clone())?;

    // The run is `SEGMENTS` segments, each a set-up, a hot phase of an
    // equal share of `--seconds`, and a fresh phase, so the set-up is
    // timed across the run and every daemon starts from the same cache.
    // Set-up: the in-process reference of the hot set, a daemon that
    // prefills a fresh cache with it and is drained, and a warm restart
    // on that directory, so each hot job's first `submit` is a cache hit.
    let segment_s = ctx.seconds / SEGMENTS as f64;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(ctx.trace, epoch, c + 1))
        .collect();
    let mut setup = Vec::with_capacity(SEGMENTS);
    let mut reference: Option<Vec<JobOutcome>> = None;
    let mut first_op_s = 0.0;
    let (mut logs, mut fresh, mut daemon_rss, mut hot_s) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let (mut fresh_requests, mut fresh_rejections, mut fresh_polls) = (0, 0, 0);
    let (mut daemon_hits, mut daemon_known, mut daemon_rejections) = (0, 0, 0);
    for (seg, seg_fresh) in fresh_specs.iter().enumerate() {
        let t = Instant::now();
        let outcomes = table3::pass_plain(&benches, &hot_specs)?;
        let dir = ScratchDir::new(base.join(format!("cache{seg}")))?;
        let filler = Daemon::boot(&bin, &dir.0, ctx.threads)?;
        let lines = prefill(&filler, &hot_specs, &outcomes)?;
        Daemon::stop(filler)?;
        let daemon = Daemon::boot(&bin, &dir.0, ctx.threads)?;
        setup.push(t.elapsed().as_secs_f64());
        match &reference {
            None => {
                reference = Some(outcomes);
                first_op_s = ctx.started.elapsed().as_secs_f64();
            }
            Some(want) if *want != outcomes => {
                return Err("a set-up pass differs from the first".into())
            }
            Some(_) => {}
        }
        let hot = Hot {
            specs: &hot_specs,
            lines,
        };

        // Hot phase: closed-loop clients until this segment's share of
        // the window is measured.
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(segment_s);
        let seg_logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, tr)| {
                    let (daemon, hot) = (&daemon, &hot);
                    let id_base = ((c as u64) << 56) | ((seg as u64) << 48);
                    s.spawn(move || client(daemon, ctx, id_base, hot, deadline, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        hot_s += start.elapsed().as_secs_f64();
        logs.extend(seg_logs);

        // Fresh phase: the segment's fresh jobs, one at a time.
        let (seg_fresh, requests, rejections, polls) = fresh_phase(&daemon, seg_fresh)?;
        fresh.extend(seg_fresh);
        fresh_requests += requests;
        fresh_rejections += rejections;
        fresh_polls += polls;

        let metrics = daemon.connect()?.call_json(r#"{"verb":"metrics"}"#)?;
        daemon_hits += counter(&metrics, "cache", "hits");
        daemon_known += counter(&metrics, "jobs", "known");
        daemon_rejections += counter(&metrics, "queue", "rejections");
        daemon_rss.push(peak_rss_mb(Some(daemon.pid()))?);
        Daemon::stop(daemon)?;
    }
    let reference = reference.expect("set-up ran");

    // Every fresh result must match an in-process run of the same job.
    let checked = dmt_runner::run_indexed(fresh.len(), ctx.threads, |i| {
        let f = &fresh[i];
        let bench = layers::bench_named(&f.spec.bench)?;
        let want = layers::run_plain(bench.as_ref(), f.spec.arch, f.spec.cfg, f.spec.seed)?;
        let cycles = want.cycles();
        verify_result(&f.result, &f.spec, &JobOutcome::completed(want)).map(|()| cycles)
    });
    let mut fresh_cycles = 0u64;
    for c in checked {
        fresh_cycles += c?;
    }
    let exec_ms: Vec<f64> = fresh.iter().map(|f| f.exec_ms).collect();
    let done_ms: Vec<f64> = fresh.iter().map(|f| f.done_ms).collect();
    let fresh_rate = fresh_cycles as f64 / (exec_ms.iter().sum::<f64>() / 1e3);

    let hot_ms: Vec<f64> = logs.iter().flat_map(|l| l.hot_ms.iter().copied()).collect();
    let hot_jobs: u64 = logs.iter().map(|l| l.jobs).sum();
    let rejections = logs.iter().map(|l| l.rejections).sum::<u64>() + fresh_rejections;
    out.attempted = logs.iter().map(|l| l.requests).sum::<u64>() + fresh_requests;
    out.failed = rejections;
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mb", median(&daemon_rss));
    out.set("op_p50_ms", median(&hot_ms));
    out.set("op_tail_ms", percentile(&hot_ms, TAIL_PCT));
    out.set("sim_cycles_per_s", fresh_rate);
    PaperGap::of(&hot_specs, &reference).report(&mut out);
    out.notes.push(format!(
        "serve_closed_loop: {SEGMENTS} segments; hot phases {CLIENTS} clients, {hot_jobs} jobs in {hot_s:.1} s \
         = {:.1} jobs/s, submit->result p50 {:.3} ms, p{TAIL_PCT} {:.3} ms ({} beyond, n={}); \
         fresh phases {} jobs, submit->done p50 {:.2} ms, daemon execution p50 {:.2} ms, {fresh_rate:.0} sim cycles/s; \
         {rejections} rejections; daemon cache hits {daemon_hits}, known {daemon_known}; \
         setup {:.3} s (median of {SEGMENTS}); start to first timed op {first_op_s:.3} s",
        hot_jobs as f64 / hot_s,
        median(&hot_ms),
        percentile(&hot_ms, TAIL_PCT),
        beyond(&hot_ms, TAIL_PCT),
        hot_ms.len(),
        fresh.len(),
        median(&done_ms),
        median(&exec_ms),
        median(&setup),
    ));
    out.notes.push(format!(
        "checks: {SEGMENTS} set-up passes identical; {} prefilled hot results matched in-process runs; \
         {hot_jobs} hot results byte-identical to them; {} fresh results matched in-process runs \
         (Benchmark::check passed)",
        SEGMENTS * hot_specs.len(),
        fresh.len(),
    ));

    if ctx.trace {
        let spans: Vec<Span> = tracers.into_iter().flat_map(Tracer::into_spans).collect();
        let durations = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        };
        out.set("serve.submit_us", median(&durations("serve.submit")));
        out.set("serve.status_us", median(&durations("serve.status")));
        out.set("serve.result_us", median(&durations("serve.result")));
        out.set(
            "serve.polls_per_job",
            layers::ratio(fresh_polls, fresh.len() as u64),
        );
        let waits: Vec<f64> = fresh
            .iter()
            .map(|f| (f.done_ms - f.exec_ms).max(0.0))
            .collect();
        out.set("serve.exec_ms", median(&exec_ms));
        out.set("serve.queue_wait_ms", median(&waits));
        out.set("serve.cache_hits", daemon_hits as f64);
        out.set("serve.known", daemon_known as f64);
        out.set("serve.rejections", daemon_rejections as f64);
        out.set("serve.jobs_per_s", hot_jobs as f64 / hot_s);
        let traced: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.hot_traced_ms.iter().copied())
            .collect();
        out.set(
            "obs.trace_overhead_frac",
            median(&traced) / median(&hot_ms) - 1.0,
        );
        let t = crate::span::self_times(&spans);
        let root = t.get("serve.request").copied().unwrap_or_default();
        out.set(
            "obs.unattributed_ms",
            root.self_ns as f64 / root.calls.max(1) as f64 / 1e6,
        );
        out.notes.push(format!(
            "trace: {} traced requests; per request {:.3} ms wall, unattributed {:.4} ms",
            root.calls,
            root.total_ns as f64 / root.calls.max(1) as f64 / 1e6,
            root.self_ns as f64 / root.calls.max(1) as f64 / 1e6,
        ));
        out.zero_layers(&[
            "fabric.",
            "gpu.",
            "compiler.",
            "dfg.",
            "kernels.",
            "energy.",
            "mem.",
            "runner.",
        ]);
        out.spans = spans;
    }
    let set_hash = |specs: &mut dyn Iterator<Item = &JobSpec>| {
        specs.fold(ctx.seed, |h, s| mix(h ^ s.job_hash()))
    };
    out.work = format!(
        "{{\"workload\":\"serve_closed_loop\",\"seed\":{},\"clients\":{CLIENTS},\"segments\":{SEGMENTS},\
         \"hot_jobs\":{},\"hot_set_hash\":\"{:016x}\",\"hot_sim_cycles\":{},\
         \"fresh_jobs\":{},\"fresh_set_hash\":\"{:016x}\",\"fresh_sim_cycles\":{fresh_cycles}}}",
        ctx.seed,
        hot_specs.len(),
        set_hash(&mut hot_specs.iter()),
        reference.iter().filter_map(JobOutcome::metrics).map(|m| m.cycles()).sum::<u64>(),
        fresh.len(),
        set_hash(&mut fresh_specs.iter().flatten()),
    );
    Ok(out)
}
