//! Corruption-injection tests of the router's write-ahead intent journal:
//! every way the file can rot on disk — torn tails, bit flips, duplicate
//! `settled` records, orphaned gids, foreign-version and damaged
//! envelopes, a compaction cut between its tmp write and its rename —
//! must surface as the expected typed [`JournalError`] or
//! [`JournalAnomaly`], never a panic, and recovery must always err the
//! safe way: re-route a survivor rather than risk a double settlement.
//! Compaction must never lower the gid fence.
//!
//! Journals here are grown by a real [`Journal`] writer so the corruption
//! lands on exactly the bytes production would write, then damaged with
//! raw file edits.

use saim_ising::QuboBuilder;
use saim_machine::checkpoint::digest64;
use saim_machine::cluster::journal::{
    Journal, JournalAnomaly, JournalError, JournalRecord, JOURNAL_VERSION,
};
use saim_machine::service::{JobSpec, SolverSpec};
use std::path::{Path, PathBuf};

/// A unique scratch directory, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "saim-journal-corruption-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        ScratchDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spec(gid: u64) -> JobSpec {
    let mut b = QuboBuilder::new(4);
    for i in 0..4 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    JobSpec::new(gid, b.build(), SolverSpec::Descent { max_sweeps: 16 }, gid)
        .with_instance_digest(gid ^ 0xD1)
}

fn routed(gid: u64) -> JournalRecord {
    JournalRecord::Routed {
        gid,
        client_job: gid + 100,
        spec: spec(gid),
    }
}

/// Writes a journal tracing `routed 1..=n`, `accepted` for each, and
/// `settled` for the given gids, through the production writer.
fn grow_journal(path: &Path, n: u64, settle: &[u64]) {
    let (mut journal, recovery) = Journal::open(path).expect("fresh journal opens");
    assert!(recovery.unsettled.is_empty());
    for gid in 1..=n {
        journal.append(&routed(gid)).expect("append routed");
        journal
            .append(&JournalRecord::Accepted { gid, backend: 0 })
            .expect("append accepted");
    }
    for &gid in settle {
        journal
            .append(&JournalRecord::Settled { gid })
            .expect("append settled");
    }
}

fn unsettled_gids(recovery: &saim_machine::cluster::journal::JournalRecovery) -> Vec<u64> {
    recovery.unsettled.iter().map(|j| j.gid).collect()
}

#[test]
fn clean_journal_recovers_only_the_unsettled_jobs() {
    let dir = ScratchDir::new("clean");
    let path = dir.file("intents.ndjson");
    grow_journal(&path, 4, &[2, 4]);
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert_eq!(unsettled_gids(&recovery), vec![1, 3]);
    assert_eq!(recovery.settled, 2);
    assert!(recovery.anomalies.is_empty());
    assert!(recovery.next_gid > 4, "next gid clears every journaled gid");
    // the reopen compacted: a third open sees only the survivors, with the
    // settled gids physically gone
    let (_journal, again) = Journal::open(&path).expect("replay compacted");
    assert_eq!(unsettled_gids(&again), vec![1, 3]);
    assert_eq!(again.settled, 0);
    assert!(again.anomalies.is_empty());
}

/// A tail torn mid-line (the crash the journal exists to survive) stops
/// replay with a typed anomaly; the torn record is treated as never
/// written, so the job it described re-routes.
#[test]
fn torn_tail_is_reported_and_replay_stops_before_it() {
    let dir = ScratchDir::new("torn");
    let path = dir.file("intents.ndjson");
    grow_journal(&path, 2, &[1]);
    let mut bytes = std::fs::read(&path).expect("read journal");
    // tear the final line: drop its newline and half its checksum
    bytes.truncate(bytes.len() - 9);
    std::fs::write(&path, &bytes).expect("tear tail");
    let (_journal, recovery) = Journal::open(&path).expect("replay survives a torn tail");
    // the torn line was `settled 1`, so gid 1 conservatively re-routes
    assert_eq!(unsettled_gids(&recovery), vec![1, 2]);
    assert_eq!(recovery.settled, 0);
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [JournalAnomaly::TornTail { .. }]
        ),
        "expected a torn-tail anomaly, got {:?}",
        recovery.anomalies
    );
}

/// A flipped bit mid-file fails that line's checksum; replay keeps what
/// came before and conservatively discards the line and everything after.
#[test]
fn bit_flip_fails_the_checksum_and_discards_the_suspect_suffix() {
    let dir = ScratchDir::new("flip");
    let path = dir.file("intents.ndjson");
    grow_journal(&path, 3, &[1, 2, 3]);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    // flip one bit inside the `settled 1` payload (line index 7: header +
    // three routed/accepted pairs), keeping its stale checksum
    let target = 7;
    let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mut line_bytes = damaged[target].clone().into_bytes();
    line_bytes[10] ^= 0x01;
    damaged[target] = String::from_utf8(line_bytes).expect("still utf-8");
    std::fs::write(&path, damaged.join("\n") + "\n").expect("write damaged");
    let (_journal, recovery) = Journal::open(&path).expect("replay survives a bit flip");
    // every settled record was at or after the damage: all three re-route
    assert_eq!(unsettled_gids(&recovery), vec![1, 2, 3]);
    assert_eq!(recovery.settled, 0);
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [JournalAnomaly::ChecksumMismatch { line: 8 }]
        ),
        "expected a checksum anomaly at line 8, got {:?}",
        recovery.anomalies
    );
}

/// A duplicate `settled` record is harmless (settlement is idempotent) but
/// surfaced, and must not resurrect or double-drop the gid.
#[test]
fn duplicate_settled_is_surfaced_and_stays_settled() {
    let dir = ScratchDir::new("dup-settled");
    let path = dir.file("intents.ndjson");
    grow_journal(&path, 2, &[2, 2]);
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert_eq!(unsettled_gids(&recovery), vec![1]);
    assert_eq!(recovery.settled, 1, "gid 2 settled once, not twice");
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [JournalAnomaly::DuplicateSettled { gid: 2, .. }]
        ),
        "expected a duplicate-settled anomaly, got {:?}",
        recovery.anomalies
    );
}

/// `accepted`/`settled` records whose `routed` line was lost to damage are
/// reported and ignored — with no spec there is nothing to re-route.
#[test]
fn orphaned_records_are_reported_and_ignored() {
    let dir = ScratchDir::new("orphan");
    let path = dir.file("intents.ndjson");
    {
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        journal.append(&routed(1)).expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 9 })
            .expect("append orphan settled");
        journal
            .append(&JournalRecord::Accepted { gid: 8, backend: 1 })
            .expect("append orphan accepted");
    }
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert_eq!(unsettled_gids(&recovery), vec![1]);
    assert_eq!(recovery.settled, 0);
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [
                JournalAnomaly::UnknownGid { gid: 9, .. },
                JournalAnomaly::UnknownGid { gid: 8, .. }
            ]
        ),
        "expected two unknown-gid anomalies, got {:?}",
        recovery.anomalies
    );
    assert!(recovery.next_gid > 9, "orphaned gids still fence next_gid");
}

/// A record that passes its checksum but parses as no known kind (writer
/// drift) stops replay at that line with a typed anomaly.
#[test]
fn malformed_record_behind_a_valid_checksum_stops_replay() {
    let dir = ScratchDir::new("malformed");
    let path = dir.file("intents.ndjson");
    grow_journal(&path, 1, &[]);
    {
        let mut text = std::fs::read_to_string(&path).expect("read journal");
        let payload = r#"{"record":"vaporized","gid":1}"#;
        text.push_str(&format!(
            "{payload}\t{:016x}\n",
            digest64(payload.as_bytes())
        ));
        std::fs::write(&path, text).expect("append drifted record");
    }
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert_eq!(unsettled_gids(&recovery), vec![1]);
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [JournalAnomaly::MalformedRecord { .. }]
        ),
        "expected a malformed-record anomaly, got {:?}",
        recovery.anomalies
    );
}

/// A foreign-version envelope is refused outright with the typed error —
/// nothing in the file can be trusted, so recovery must not guess.
#[test]
fn foreign_version_envelope_is_refused() {
    let dir = ScratchDir::new("version");
    let path = dir.file("intents.ndjson");
    let payload = r#"{"journal":"saim-cluster","version":99}"#;
    let line = format!("{payload}\t{:016x}\n", digest64(payload.as_bytes()));
    std::fs::write(&path, line).expect("write foreign envelope");
    match Journal::open(&path) {
        Err(JournalError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, JOURNAL_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

/// An envelope that is damaged, or names some other file format, is a
/// typed malformed error — the journal never appends below a header it
/// cannot vouch for.
#[test]
fn damaged_or_foreign_envelopes_are_malformed_errors() {
    let dir = ScratchDir::new("envelope");
    let bad_checksum = dir.file("bad-checksum.ndjson");
    std::fs::write(
        &bad_checksum,
        "{\"journal\":\"saim-cluster\",\"version\":1}\t0000000000000000\n",
    )
    .expect("write damaged envelope");
    assert!(
        matches!(
            Journal::open(&bad_checksum),
            Err(JournalError::Malformed(_))
        ),
        "a checksum-failing envelope must be malformed"
    );

    let foreign_tag = dir.file("foreign-tag.ndjson");
    let payload = r#"{"journal":"other-system","version":1}"#;
    std::fs::write(
        &foreign_tag,
        format!("{payload}\t{:016x}\n", digest64(payload.as_bytes())),
    )
    .expect("write foreign tag");
    assert!(
        matches!(Journal::open(&foreign_tag), Err(JournalError::Malformed(_))),
        "a foreign tag must be malformed, not guessed at"
    );

    let not_json = dir.file("not-json.ndjson");
    std::fs::write(&not_json, "this was never a journal\n").expect("write junk");
    assert!(
        matches!(Journal::open(&not_json), Err(JournalError::Malformed(_))),
        "junk bytes must be malformed"
    );
}

/// Interleaved `hedged`/`superseded` records from k-replica routing replay
/// to exactly one re-route per unsettled gid: a job with two journaled
/// live replicas must not be re-delivered twice, and a settled gid stays
/// dead no matter which replica records surround it.
#[test]
fn interleaved_hedge_records_replay_to_exactly_one_reroute() {
    let dir = ScratchDir::new("hedge-interleave");
    let path = dir.file("intents.ndjson");
    {
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        // gid 1: full hedged life — primary accepted, replica fired, the
        // primary lost the race and was superseded, then settlement
        journal.append(&routed(1)).expect("append");
        journal
            .append(&JournalRecord::Accepted { gid: 1, backend: 0 })
            .expect("append");
        journal
            .append(&JournalRecord::Hedged { gid: 1, backend: 1 })
            .expect("append");
        journal
            .append(&JournalRecord::Superseded { gid: 1, backend: 0 })
            .expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 1 })
            .expect("append");
        // gid 2: crash with two live replicas journaled (accepted + hedged)
        journal.append(&routed(2)).expect("append");
        journal
            .append(&JournalRecord::Accepted { gid: 2, backend: 0 })
            .expect("append");
        journal
            .append(&JournalRecord::Hedged { gid: 2, backend: 1 })
            .expect("append");
        // gid 3: crash between the loser's `superseded` and the winner's
        // `settled` — conservatively still unsettled
        journal.append(&routed(3)).expect("append");
        journal
            .append(&JournalRecord::Hedged { gid: 3, backend: 1 })
            .expect("append");
        journal
            .append(&JournalRecord::Superseded { gid: 3, backend: 1 })
            .expect("append");
    }
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert_eq!(
        unsettled_gids(&recovery),
        vec![2, 3],
        "each unsettled hedged gid re-routes exactly once"
    );
    assert_eq!(recovery.settled, 1);
    assert!(recovery.anomalies.is_empty(), "{:?}", recovery.anomalies);
    assert!(recovery.next_gid > 3, "hedge records fence next_gid");
}

/// A tail torn through the `settled` line of a hedged job treats the
/// settlement as never written: the gid re-routes once, and the `hedged`
/// record before the tear neither resurrects a second copy nor is lost.
#[test]
fn torn_tail_after_hedged_reroutes_the_job_once() {
    let dir = ScratchDir::new("hedge-torn");
    let path = dir.file("intents.ndjson");
    {
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        journal.append(&routed(1)).expect("append");
        journal
            .append(&JournalRecord::Accepted { gid: 1, backend: 0 })
            .expect("append");
        journal
            .append(&JournalRecord::Hedged { gid: 1, backend: 1 })
            .expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 1 })
            .expect("append");
    }
    let mut bytes = std::fs::read(&path).expect("read journal");
    bytes.truncate(bytes.len() - 9); // tear into the settled line
    std::fs::write(&path, &bytes).expect("tear tail");
    let (_journal, recovery) = Journal::open(&path).expect("replay survives the tear");
    assert_eq!(unsettled_gids(&recovery), vec![1]);
    assert_eq!(recovery.settled, 0);
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [JournalAnomaly::TornTail { .. }]
        ),
        "expected a torn-tail anomaly, got {:?}",
        recovery.anomalies
    );
}

/// A duplicate `settled` surrounded by replica records (the
/// crash-mid-settlement shape: losers journaled, settled, then a re-played
/// settle after restart) is surfaced once and the gid stays dead.
#[test]
fn duplicate_settled_amid_hedge_records_stays_dead() {
    let dir = ScratchDir::new("hedge-dup-settled");
    let path = dir.file("intents.ndjson");
    {
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        journal.append(&routed(1)).expect("append");
        journal
            .append(&JournalRecord::Hedged { gid: 1, backend: 1 })
            .expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 1 })
            .expect("append");
        journal
            .append(&JournalRecord::Superseded { gid: 1, backend: 1 })
            .expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 1 })
            .expect("append");
    }
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert!(
        unsettled_gids(&recovery).is_empty(),
        "the gid stays settled"
    );
    assert_eq!(recovery.settled, 1, "settled once, not twice");
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [JournalAnomaly::DuplicateSettled { gid: 1, .. }]
        ),
        "expected one duplicate-settled anomaly, got {:?}",
        recovery.anomalies
    );
}

/// `hedged`/`superseded` records whose `routed` line was lost are orphans
/// like any other: reported, ignored, and still fencing `next_gid`.
#[test]
fn orphaned_hedge_records_are_reported_and_ignored() {
    let dir = ScratchDir::new("hedge-orphan");
    let path = dir.file("intents.ndjson");
    {
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        journal.append(&routed(1)).expect("append");
        journal
            .append(&JournalRecord::Hedged { gid: 7, backend: 1 })
            .expect("append orphan hedged");
        journal
            .append(&JournalRecord::Superseded { gid: 6, backend: 0 })
            .expect("append orphan superseded");
    }
    let (_journal, recovery) = Journal::open(&path).expect("replay");
    assert_eq!(unsettled_gids(&recovery), vec![1]);
    assert!(
        matches!(
            recovery.anomalies.as_slice(),
            [
                JournalAnomaly::UnknownGid { gid: 7, .. },
                JournalAnomaly::UnknownGid { gid: 6, .. }
            ]
        ),
        "expected two unknown-gid anomalies, got {:?}",
        recovery.anomalies
    );
    assert!(recovery.next_gid > 7, "orphaned hedge gids fence next_gid");
}

/// Compaction physically removes damage: after one recovering open, a
/// second open of the same file replays clean.
#[test]
fn compaction_scrubs_damage_so_the_next_open_is_clean() {
    let dir = ScratchDir::new("compact");
    let path = dir.file("intents.ndjson");
    grow_journal(&path, 2, &[1]);
    let mut bytes = std::fs::read(&path).expect("read journal");
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&path, &bytes).expect("tear tail");
    let (_journal, first) = Journal::open(&path).expect("recovering open");
    assert!(!first.anomalies.is_empty(), "the damage was seen");
    drop(_journal);
    let (_journal, second) = Journal::open(&path).expect("clean open");
    assert!(second.anomalies.is_empty(), "the damage was compacted away");
    assert_eq!(unsettled_gids(&second), unsettled_gids(&first));
}

/// Compaction drops `settled` records, and with them the highest gids ever
/// issued; the envelope's fence must carry them across any number of
/// restarts, or a twice-restarted router would hand out used gids.
#[test]
fn restart_compaction_keeps_the_gid_fence() {
    let dir = ScratchDir::new("fence");
    let path = dir.file("intents.ndjson");
    {
        let (mut journal, _) = Journal::open(&path).expect("fresh journal");
        journal.append(&routed(5)).expect("append");
        journal
            .append(&JournalRecord::Settled { gid: 5 })
            .expect("append");
    }
    for reopen in 1..=3 {
        let (_journal, recovery) = Journal::open(&path).expect("reopen");
        assert!(recovery.unsettled.is_empty());
        assert!(recovery.anomalies.is_empty(), "{:?}", recovery.anomalies);
        assert_eq!(recovery.next_gid, 6, "gid fence lost at reopen {reopen}");
    }
}

/// A crash between compaction's tmp write and its rename leaves the old
/// journal beside a complete `<journal>.tmp`. The old journal is still the
/// truth: the next open must replay exactly it, and its own compaction
/// overwrites the stale tmp.
#[test]
fn crash_between_compaction_tmp_write_and_rename_replays_the_old_journal() {
    let dir = ScratchDir::new("tmp-crash");
    let path = dir.file("intents.ndjson");
    let pristine = dir.file("pristine.ndjson");
    grow_journal(&path, 4, &[1, 3]);
    std::fs::copy(&path, &pristine).expect("copy journal");
    // the tmp a compaction would have written: a different, later state
    // (gid 2 settled too), complete but never renamed into place
    {
        let staged = dir.file("staged.ndjson");
        std::fs::copy(&path, &staged).expect("copy journal");
        let (mut journal, _) = Journal::open(&staged).expect("open copy");
        let live = spec(4);
        journal.compact(5, [(4, 104, &live)]).expect("compact copy");
        drop(journal);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::rename(&staged, &tmp).expect("stage stale tmp");
    }
    let (_journal, recovery) = Journal::open(&path).expect("replay beside a stale tmp");
    let (_journal, expected) = Journal::open(&pristine).expect("replay the pristine copy");
    assert_eq!(recovery.unsettled, expected.unsettled);
    assert_eq!(unsettled_gids(&recovery), vec![2, 4]);
    assert_eq!(recovery.settled, expected.settled);
    assert_eq!(recovery.next_gid, expected.next_gid);
    assert_eq!(recovery.anomalies, expected.anomalies);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    assert!(
        !PathBuf::from(tmp).exists(),
        "the open's own compaction consumed the stale tmp"
    );
}
