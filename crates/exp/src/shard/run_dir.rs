//! A campaign's run directory. [`RunDir`] claims it and alone names its
//! files: the `campaign.json` manifest of the campaign it belongs to, the
//! `coordinator.lock` claim and one `partial-<shard>.json` checkpoint per
//! finished shard. A run directory is removed only once its campaign's
//! result is durably written, and its parent work dir never is.

use super::partial::ShardPartial;
use super::{McConfig, ShardSpec};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Schema tag of the `campaign.json` manifest a run directory carries.
const CAMPAIGN_SCHEMA: &str = "xbar-mc-campaign/1";
const MANIFEST: &str = "campaign.json";
const LOCK: &str = "coordinator.lock";

/// Shard `index`'s checkpoint in the run directory `dir`.
fn partial_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("partial-{index}.json"))
}

/// The run directory a campaign owns beneath `work_dir`, named from its
/// identity `(seed, samples, shards, stream[, model kind])`, so different
/// campaigns sharing a work dir never clobber each other. The default
/// model keeps the pre-model name (CI's resume smoke hardcodes it); what a
/// path cannot hold (defect rate, circuits, model parameters) the manifest
/// check covers.
#[must_use]
pub fn campaign_run_dir(work_dir: &Path, config: &McConfig, shards: usize) -> PathBuf {
    let mut name = format!(
        "run-seed{}-n{}-k{}-{}",
        config.seed, config.samples, shards, config.stream
    );
    if !config.model.is_default() {
        let _ = write!(name, "-{}", config.model.kind().as_str());
    }
    work_dir.join(name)
}

/// A claimed run directory. The claim is a kernel lock
/// ([`fs::File::try_lock`]) on its lock file, held for the value's
/// lifetime: the kernel alone decides who owns the directory and releases
/// the claim when the holder dies, `kill -9` included, so nothing checks
/// owner liveness. The file's bytes mean nothing.
#[derive(Debug)]
pub(crate) struct RunDir {
    path: PathBuf,
    config: McConfig,
    shards: usize,
    _lock: fs::File,
}

impl RunDir {
    /// Creates and claims the run directory of `(config, shards)` beneath
    /// `work_dir`, then checks its manifest against the campaign or writes
    /// one recording the fleet `hosts`. A second claim on a live campaign
    /// fails fast ("campaign already running"); a directory of a
    /// *different* campaign, or with checkpoints but no manifest, is
    /// refused, never clobbered.
    pub(crate) fn claim(
        work_dir: &Path,
        config: &McConfig,
        shards: usize,
        hosts: &[String],
    ) -> Result<Self, String> {
        let path = campaign_run_dir(work_dir, config, shards);
        fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create run dir {}: {e}", path.display()))?;
        let lock = acquire_run_dir_lock(&path)?;
        let manifest_path = path.join(MANIFEST);
        match fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let (found, found_shards) = parse_campaign_manifest(&text).map_err(|e| {
                    format!(
                        "{}: {e}; remove the directory (or pick another --work-dir) to proceed",
                        manifest_path.display()
                    )
                })?;
                if let Some(diff) = campaign_mismatch(config, shards, &found, found_shards) {
                    return Err(format!(
                        "run dir {} belongs to a different campaign ({diff}); refusing to \
                         clobber its partials — remove the directory or pick another --work-dir",
                        path.display()
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No manifest: a partial here was written by something we
                // cannot identify (a pre-manifest run or a foreign tool) —
                // refuse rather than mix campaigns.
                if let Some(index) = (0..shards).find(|&i| partial_path(&path, i).exists()) {
                    return Err(format!(
                        "run dir {} holds {} but no campaign manifest; refusing to \
                         clobber — remove the directory or pick another --work-dir",
                        path.display(),
                        partial_path(&path, index).display()
                    ));
                }
                let manifest = render_campaign_manifest(config, shards, hosts);
                fs::write(&manifest_path, manifest)
                    .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
            }
            Err(e) => return Err(format!("cannot read {}: {e}", manifest_path.display())),
        }
        Ok(Self {
            path,
            config: config.clone(),
            shards,
            _lock: lock,
        })
    }

    /// Shard `spec`'s checkpoint, if one parses and passes
    /// [`ShardPartial::validate_for`] against this campaign and slice;
    /// anything else (missing, torn, another slice or campaign) is none.
    pub(crate) fn checkpoint(&self, spec: &ShardSpec) -> Option<ShardPartial> {
        let text = fs::read_to_string(partial_path(&self.path, spec.index)).ok()?;
        let partial = ShardPartial::from_json(&text).ok()?;
        partial
            .validate_for(&self.config, spec)
            .ok()
            .map(|()| partial)
    }

    /// Saves `text`, a validated partial, as shard `index`'s checkpoint,
    /// atomically: readers never see a torn file.
    pub(crate) fn save(&self, index: usize, text: &str) -> Result<(), String> {
        let path = partial_path(&self.path, index);
        crate::atomic::write_atomic(&path, text.as_bytes())
            .map_err(|e| format!("cannot checkpoint {}: {e}", path.display()))
    }

    /// How many of `shards` checkpoints the run directory at `path` holds:
    /// a sharded job's progress. A write's temporary sibling never counts.
    pub(crate) fn count_checkpoints(path: &Path, shards: usize) -> usize {
        (0..shards)
            .filter(|&index| partial_path(path, index).is_file())
            .count()
    }

    /// Deletes the checkpoints, the manifest and the lock file (unlinked
    /// while still claimed; see [`claim_lock_file`]), then the directory
    /// if nothing else is in it. Its parent is never touched.
    pub(crate) fn remove(self) {
        for index in 0..self.shards {
            let _ = fs::remove_file(partial_path(&self.path, index));
        }
        let _ = fs::remove_file(self.path.join(MANIFEST));
        let _ = fs::remove_file(self.path.join(LOCK));
        let _ = fs::remove_dir(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Campaign manifest: what a run directory belongs to
// ---------------------------------------------------------------------------

/// Renders the manifest: the campaign identity in the encoding partials
/// and the merged artifact share ([`McConfig::write_identity`]), the shard
/// count, the circuits and, when non-empty, the fleet `hosts` (`"name*slots"`
/// entries, `["local*N"]` for `mc coordinate`) — provenance that
/// [`campaign_mismatch`] ignores, so a campaign may resume on another fleet.
pub(crate) fn render_campaign_manifest(
    config: &McConfig,
    shards: usize,
    hosts: &[String],
) -> String {
    let quoted = |names: &[String]| -> String {
        let entries: Vec<String> = names
            .iter()
            .map(|name| format!("\"{}\"", super::json::escape(name)))
            .collect();
        entries.join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{CAMPAIGN_SCHEMA}\",");
    config.write_identity(&mut out);
    let _ = writeln!(out, "  \"shards\": {shards},");
    if !hosts.is_empty() {
        let _ = writeln!(out, "  \"hosts\": [{}],", quoted(hosts));
    }
    let _ = writeln!(out, "  \"circuits\": [{}]", quoted(&config.circuits));
    out.push_str("}\n");
    out
}

/// Every key a `xbar-mc-campaign/1` manifest may carry. The parser
/// rejects anything else: a manifest written by a newer tool describes
/// campaign identity this coordinator cannot check, and silently ignoring
/// the extra field could merge partials from a different campaign.
const CAMPAIGN_MANIFEST_KEYS: [&str; 11] = [
    "schema",
    "seed",
    "defect_rate",
    "samples",
    "shards",
    "rng_stream",
    "defect_model",
    "cluster_size",
    "line_rate",
    "circuits",
    // Launcher host attribution: provenance, not campaign identity — a
    // resume may use a different fleet, so the parser tolerates the key
    // and the mismatch check ignores it.
    "hosts",
];

pub(crate) fn parse_campaign_manifest(text: &str) -> Result<(McConfig, usize), String> {
    let doc = super::json::Json::parse(text).map_err(|e| format!("malformed manifest: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(super::json::Json::as_str)
        .ok_or("manifest missing `schema`")?;
    if schema != CAMPAIGN_SCHEMA {
        return Err(format!(
            "manifest schema mismatch: got {schema:?}, expected {CAMPAIGN_SCHEMA:?}"
        ));
    }
    if let super::json::Json::Obj(map) = &doc {
        if let Some(unknown) = map
            .keys()
            .find(|key| !CAMPAIGN_MANIFEST_KEYS.contains(&key.as_str()))
        {
            return Err(format!(
                "manifest carries unknown key `{unknown}` (written by a newer tool?); \
                 refusing to resume a campaign whose identity cannot be fully checked"
            ));
        }
    }
    let circuits = doc
        .get("circuits")
        .and_then(super::json::Json::as_arr)
        .ok_or("manifest missing `circuits` array")?
        .iter()
        .map(|value| {
            value
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| "manifest circuit entry is not a string".to_owned())
        })
        .collect::<Result<Vec<String>, String>>()?;
    let config = McConfig::read_identity(&doc, circuits).map_err(|e| format!("manifest {e}"))?;
    let shards = doc
        .get("shards")
        .and_then(super::json::Json::as_usize)
        .ok_or("manifest missing usize `shards`")?;
    Ok((config, shards))
}

/// Describes how `found` differs from the campaign `expected`
/// ([`McConfig::mismatch`] plus the shard count, which fixes the slice
/// every checkpoint holds); `None` when they describe the same campaign.
fn campaign_mismatch(
    expected: &McConfig,
    expected_shards: usize,
    found: &McConfig,
    found_shards: usize,
) -> Option<String> {
    let mut diffs: Vec<String> = expected.mismatch(found).into_iter().collect();
    if found_shards != expected_shards {
        diffs.push(format!("shards {found_shards} != {expected_shards}"));
    }
    (!diffs.is_empty()).then(|| diffs.join(", "))
}

/// Claims `run_dir` through its lock file. Separate claims exclude each
/// other whether they come from two processes or from two callers in one.
fn acquire_run_dir_lock(run_dir: &Path) -> Result<fs::File, String> {
    let path = run_dir.join(LOCK);
    claim_lock_file(&path, open_lock_file(&path)?)
}

fn open_lock_file(path: &Path) -> Result<fs::File, String> {
    fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot lock {}: {e}", path.display()))
}

/// Locks `file`, opened on `path` at some earlier point, as the claim on
/// `path`. A finished campaign unlinks its lock file while still holding
/// it, so the file may have left the path since it was opened: a lock on
/// that orphan would exclude nobody. Once locked, the path must still
/// name the locked file; otherwise the path is reopened and claimed anew.
fn claim_lock_file(path: &Path, mut file: fs::File) -> Result<fs::File, String> {
    loop {
        match file.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => {
                return Err(format!(
                    "campaign already running: another coordinator holds {}",
                    path.display()
                ))
            }
            Err(fs::TryLockError::Error(e)) => {
                return Err(format!("cannot lock {}: {e}", path.display()))
            }
        }
        if path_names_file(path, &file)? {
            return Ok(file);
        }
        file = open_lock_file(path)?;
    }
}

/// Whether `path` names `file` (the same device and inode); false once
/// the path is gone or names another file.
#[cfg(unix)]
fn path_names_file(path: &Path, file: &fs::File) -> Result<bool, String> {
    use std::os::unix::fs::MetadataExt;
    let held = file
        .metadata()
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
    match fs::metadata(path) {
        Ok(named) => Ok((named.dev(), named.ino()) == (held.dev(), held.ino())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(format!("cannot stat {}: {e}", path.display())),
    }
}

/// Without inode identity in `std`, other platforms trust the handle.
#[cfg(not(unix))]
fn path_names_file(_path: &Path, _file: &fs::File) -> Result<bool, String> {
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_shard;
    use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

    fn config() -> McConfig {
        McConfig {
            samples: 20,
            seed: 5,
            defect_rate: 0.1,
            stream: SampleStream::V1,
            model: DefectModelSpec::default(),
            circuits: vec!["rd53".to_owned()],
        }
    }

    fn clustered_model() -> DefectModelSpec {
        DefectModelSpec::new(DefectModelKind::Clustered, 3.0, 0.02).expect("valid")
    }

    #[test]
    fn campaign_manifest_roundtrips_and_detects_mismatches() {
        let config = config();
        let text = render_campaign_manifest(&config, 3, &[]);
        let (back, shards) = parse_campaign_manifest(&text).expect("parses");
        assert_eq!(back, config);
        assert_eq!(shards, 3);
        assert!(campaign_mismatch(&config, 3, &back, shards).is_none());
        // Manifests from before partials and manifests shared one identity
        // encoding spell out the default stream; they still read.
        let legacy = "{\n  \"schema\": \"xbar-mc-campaign/1\",\n  \"seed\": 5,\n  \
                      \"defect_rate\": 0.1,\n  \"samples\": 20,\n  \"shards\": 3,\n  \
                      \"rng_stream\": \"v1\",\n  \"circuits\": [\"rd53\"]\n}\n";
        assert_eq!(
            parse_campaign_manifest(legacy).expect("legacy layout"),
            (config.clone(), 3)
        );

        let mut other = config.clone();
        other.defect_rate = 0.25;
        let diff = campaign_mismatch(&config, 3, &other, 3).expect("must differ");
        assert!(diff.contains("defect_rate"), "{diff}");
        let diff = campaign_mismatch(&config, 3, &config, 5).expect("must differ");
        assert!(diff.contains("shards"), "{diff}");

        let mut other = config.clone();
        other.model = clustered_model();
        let diff = campaign_mismatch(&config, 3, &other, 3).expect("must differ");
        assert!(diff.contains("defect_model"), "{diff}");
        // A non-default campaign's manifest declares and round-trips its
        // stream and model (a default one never mentions them, above).
        assert!(!text.contains("rng_stream") && !text.contains("defect_model"));
        other.stream = SampleStream::V2;
        let text = render_campaign_manifest(&other, 3, &[]);
        assert!(text.contains("\"cluster_size\": 3.0"), "{text}");
        assert_eq!(parse_campaign_manifest(&text).expect("parses"), (other, 3));
    }

    #[test]
    fn manifest_with_an_unknown_key_is_rejected_not_ignored() {
        // A future tool that extends campaign identity must not have its
        // manifests silently reinterpreted by this coordinator.
        let text = render_campaign_manifest(&config(), 3, &[]).replace(
            "\"shards\": 3,",
            "\"shards\": 3,\n  \"voltage_drift\": 0.3,",
        );
        let err = parse_campaign_manifest(&text).expect_err("must fail");
        assert!(err.contains("voltage_drift"), "{err}");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn manifest_host_attribution_roundtrips_and_stays_out_of_identity() {
        // A manifest records its fleet; the key parses back cleanly (it
        // is in CAMPAIGN_MANIFEST_KEYS) and never feeds campaign_mismatch
        // — the same campaign may resume on different hosts. Manifests
        // written before fleets were recorded carry no such key.
        let config = config();
        let hosts = vec!["alpha*2".to_owned(), "beta".to_owned()];
        let text = render_campaign_manifest(&config, 3, &hosts);
        assert!(
            text.contains("\"hosts\": [\"alpha*2\", \"beta\"]"),
            "{text}"
        );
        let (back, shards) = parse_campaign_manifest(&text).expect("hosts key tolerated");
        assert_eq!(back, config);
        assert_eq!(shards, 3);
        assert!(campaign_mismatch(&config, 3, &back, shards).is_none());
        assert!(
            !render_campaign_manifest(&config, 3, &[]).contains("hosts"),
            "hostless manifests keep their pre-launcher bytes"
        );
    }

    #[test]
    fn run_dir_name_derives_from_campaign_identity() {
        let config = config();
        let dir = campaign_run_dir(Path::new("/w"), &config, 4);
        assert_eq!(dir, PathBuf::from("/w/run-seed5-n20-k4-v1"));
        let v2 = McConfig {
            stream: SampleStream::V2,
            ..self::config()
        };
        assert_ne!(campaign_run_dir(Path::new("/w"), &v2, 4), dir);
        // Non-default models get their own directory; the default keeps
        // the exact pre-model name (CI's resume smoke hardcodes it).
        let clustered = McConfig {
            model: clustered_model(),
            ..self::config()
        };
        assert_eq!(
            campaign_run_dir(Path::new("/w"), &clustered, 4),
            PathBuf::from("/w/run-seed5-n20-k4-v1-clustered")
        );
    }

    fn lock_scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xbar-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create");
        dir
    }

    #[test]
    fn run_dir_lock_is_exclusive_whatever_the_file_holds_and_releases_on_drop() {
        let dir = lock_scratch("exclusive");
        let path = dir.join("coordinator.lock");
        // The file's bytes claim nothing: an empty file, a pid written by
        // an older release and garbage are all claimed while nobody holds
        // the lock, and all block a second claim while somebody does.
        for planted in ["", "4294967294\n", "1 18446744073709551615\n", "garbage"] {
            fs::write(&path, planted).expect("plant lock file");
            let lock = acquire_run_dir_lock(&dir).expect("an unheld lock file is claimed");
            let err = acquire_run_dir_lock(&dir).expect_err("a held claim blocks");
            assert!(err.contains("campaign already running"), "{err}");
            assert!(err.contains("coordinator.lock"), "{err}");
            drop(lock);
            drop(acquire_run_dir_lock(&dir).expect("dropping the claim releases it"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_claim_through_a_handle_to_an_unlinked_lock_file_fails() {
        let dir = lock_scratch("unlinked");
        let path = dir.join("coordinator.lock");
        let holder = acquire_run_dir_lock(&dir).expect("first claim");
        // A contender opens the lock file while the holder still has it.
        let stale = open_lock_file(&path).expect("contender opens");
        // The holder finishes: it unlinks the file, then releases it.
        fs::remove_file(&path).expect("unlink");
        drop(holder);
        // A new coordinator creates and claims a fresh file on the path.
        let fresh = acquire_run_dir_lock(&dir).expect("fresh claim");
        // The contender's lock on the orphaned inode would succeed; the
        // claim must not.
        let err = claim_lock_file(&path, stale).expect_err("a stale handle claims nothing");
        assert!(err.contains("campaign already running"), "{err}");
        drop(fresh);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_claims_on_one_run_dir_have_exactly_one_winner() {
        const CONTENDERS: usize = 4;
        const ROUNDS: usize = 100;
        let dir = lock_scratch("race");
        let barrier = std::sync::Barrier::new(CONTENDERS);
        for round in 0..ROUNDS {
            // Even rounds race to create the lock file, odd rounds to lock
            // the one an earlier round left unheld.
            if round % 2 == 0 {
                let _ = fs::remove_file(dir.join("coordinator.lock"));
            }
            let winners = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CONTENDERS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let claim = acquire_run_dir_lock(&dir);
                            // Winners hold on until every contender has
                            // tried, so a late claim cannot slip in after
                            // an early release.
                            barrier.wait();
                            claim.is_ok()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("contender"))
                    .filter(|&won| won)
                    .count()
            });
            assert_eq!(winners, 1, "round {round}: {winners} claims won");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A claimed run directory of `config` in 2 shards, beneath a fresh
    /// work dir.
    fn claimed(tag: &str, config: &McConfig) -> (PathBuf, RunDir) {
        let work = lock_scratch(tag);
        let run_dir = RunDir::claim(&work, config, 2, &[]).expect("claim");
        (work, run_dir)
    }

    fn slices(config: &McConfig) -> Vec<ShardSpec> {
        ShardSpec::partition(config.samples, 2)
    }

    #[test]
    fn a_saved_checkpoint_reads_back() {
        let config = config();
        let (work, run_dir) = claimed("saved", &config);
        let spec = slices(&config)[1];
        assert_eq!(run_dir.checkpoint(&spec), None, "nothing saved yet");
        let partial = run_shard(&config, &spec);
        run_dir.save(1, &partial.to_json()).expect("save");
        assert_eq!(run_dir.checkpoint(&spec), Some(partial));
        run_dir.remove();
        fs::remove_dir(&work).expect("only the run directory was inside");
    }

    #[test]
    fn a_checkpoint_of_another_slice_or_campaign_reads_as_none() {
        let config = config();
        let (work, run_dir) = claimed("foreign", &config);
        let specs = slices(&config);
        // Shard 0's partial saved as shard 1's checkpoint: the wrong slice.
        run_dir
            .save(1, &run_shard(&config, &specs[0]).to_json())
            .expect("save");
        assert_eq!(run_dir.checkpoint(&specs[1]), None);
        // Shard 0 of a campaign with another seed: the wrong campaign.
        let other = McConfig {
            seed: 6,
            ..config.clone()
        };
        run_dir
            .save(0, &run_shard(&other, &specs[0]).to_json())
            .expect("save");
        assert_eq!(run_dir.checkpoint(&specs[0]), None);
        run_dir.remove();
        fs::remove_dir(&work).expect("only the run directory was inside");
    }

    #[test]
    fn remove_deletes_only_its_own_files_and_never_the_work_dir() {
        let config = config();
        let specs = slices(&config);
        // Alone in its directory, the run directory goes, the work dir
        // stays.
        let (work, run_dir) = claimed("remove", &config);
        let path = campaign_run_dir(&work, &config, 2);
        run_dir
            .save(0, &run_shard(&config, &specs[0]).to_json())
            .expect("save");
        run_dir.remove();
        assert!(!path.exists(), "the run directory is removed");
        assert!(work.is_dir(), "its parent is not");

        // A file it did not write keeps the directory, and stays.
        let run_dir = RunDir::claim(&work, &config, 2, &[]).expect("claim again");
        run_dir
            .save(1, &run_shard(&config, &specs[1]).to_json())
            .expect("save");
        fs::write(path.join("notes.txt"), "mine").expect("foreign file");
        run_dir.remove();
        let left: Vec<String> = fs::read_dir(&path)
            .expect("the directory stays")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        assert_eq!(left, ["notes.txt"]);
        let _ = fs::remove_dir_all(&work);
    }

    #[test]
    fn the_checkpoint_count_ignores_temporary_siblings() {
        let config = config();
        let (work, run_dir) = claimed("count", &config);
        let path = campaign_run_dir(&work, &config, 2);
        assert_eq!(RunDir::count_checkpoints(&path, 2), 0);
        // What an atomic write leaves behind when killed mid-write.
        fs::write(path.join(".partial-1.json.tmp-4242-0"), "{").expect("stray temp");
        run_dir
            .save(0, &run_shard(&config, &slices(&config)[0]).to_json())
            .expect("save");
        assert_eq!(RunDir::count_checkpoints(&path, 2), 1);
        drop(run_dir);
        let _ = fs::remove_dir_all(&work);
    }
}
