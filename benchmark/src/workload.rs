//! The four workloads and the inputs generated for one of them.

use std::time::Duration;

use q_integration::datasets::gbco_trials;
use q_integration::serve::wire;
use q_integration::storage::SourceSpec;
use q_integration::{CachePolicy, Feedback, FeedbackRequest, GraphSnapshot, QueryRequest};

use crate::gen::{self, Tier};

/// Where a workload's writes run relative to its reads.
#[derive(Debug, Clone, Copy)]
pub enum Writes {
    /// Between parts of the read window, one at a time: the window is cut
    /// into as many equal parts as there are ingests, one ingest follows each
    /// part, and the feedbacks follow the last. The read figures stay those
    /// of a quiet server, the write figures are those of a source arriving
    /// at this corpus size and cache state, and the ingests are spread over
    /// the whole run: the machine slows for seconds at a time, and ingests
    /// sent in one two-second burst were all fast or all slow (spread 25 %).
    Between { ingests: usize, feedbacks: usize },
    /// Beside the reads, open loop on a fixed schedule.
    Beside {
        ingest_period: Duration,
        feedback_period: Duration,
        feedback_offset: Duration,
    },
}

/// Length of the measured window unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub tier: Tier,
    /// Distinct keyword queries generated.
    pub queries: usize,
    /// `Bypass` computes every answer; `Cached` is the default policy.
    pub cache: CachePolicy,
    /// Answer-cache capacity (`None` keeps the server default).
    pub cache_capacity: Option<usize>,
    /// Rank-skew exponent of the draw sequence; `None` cycles the queries in
    /// order.
    pub skew: Option<f64>,
    /// `(n, count)`: of every `n` reads the first repeats one of `queries`
    /// and the rest are `count` further queries sent with `Bypass` — a
    /// user's new queries among the repeated ones.
    pub fresh: Option<(usize, usize)>,
    /// Closed-loop reader clients.
    pub readers: usize,
    /// Reads issued before the window opens (not timed).
    pub warmup_reads: usize,
    pub writes: Writes,
    /// One in this many responses is replayed against its snapshot.
    pub replay_every: usize,
    /// Reads and writes the traced run re-drives stage by stage.
    pub trace_reads: usize,
    pub trace_writes: usize,
    /// Reads the traced run issues after each ingest and each feedback (the
    /// reader's view of a publish: which cached answers survived it).
    pub trace_reads_per_write: usize,
}

const GBCO_SOURCES: usize = 18;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "miss_100x",
        why: "1818 sources, every query computed: keyword match and Steiner search are the whole miss; largest snapshot",
        tier: Tier {
            gbco_rows: 50,
            synthetic_sources: 100 * GBCO_SOURCES,
            synthetic_rows: 50,
        },
        queries: 512,
        cache: CachePolicy::Bypass,
        cache_capacity: None,
        skew: None,
        fresh: None,
        readers: 2,
        warmup_reads: 16,
        // `QServe` retains every snapshot, 160 MB a publish here: five keep
        // the process near 1 GB.
        writes: Writes::Between {
            ingests: 5,
            feedbacks: 0,
        },
        replay_every: 16,
        trace_reads: 32,
        trace_writes: 4,
        trace_reads_per_write: 0,
    },
    Workload {
        name: "miss_rows",
        why: "18 sources at 200 rows, every query computed: keyword matching over values is the miss, Steiner search 5 %, so a search-only gain must not show",
        tier: Tier {
            gbco_rows: 200,
            synthetic_sources: 0,
            synthetic_rows: 50,
        },
        queries: 512,
        cache: CachePolicy::Bypass,
        cache_capacity: None,
        skew: None,
        fresh: None,
        readers: 2,
        warmup_reads: 64,
        writes: Writes::Between {
            ingests: 9,
            feedbacks: 9,
        },
        replay_every: 16,
        trace_reads: 256,
        trace_writes: 8,
        trace_reads_per_write: 0,
    },
    Workload {
        name: "zipf_cached",
        why: "198 sources, 1024 skewed queries over a 256-entry cache: the median is a cache hit (HTTP, wire, cache), and its ingests meet a full cache to judge",
        tier: Tier {
            gbco_rows: 50,
            synthetic_sources: 10 * GBCO_SOURCES,
            synthetic_rows: 50,
        },
        queries: 1024,
        cache: CachePolicy::Cached,
        cache_capacity: Some(256),
        skew: Some(ZIPF_SKEW),
        fresh: None,
        readers: 2,
        warmup_reads: 1536,
        // An ingest into the warm cache is ~2 s of verdicts and ~3 s of
        // re-validation behind it.
        writes: Writes::Between {
            ingests: 3,
            feedbacks: 9,
        },
        replay_every: 32,
        trace_reads: 512,
        trace_writes: 2,
        trace_reads_per_write: 0,
    },
    Workload {
        name: "live_mixed",
        why: "36 sources, one reader (1 read in 3 repeats one of 64 cached queries, 2 are new) beside a writer ingesting and sending feedback on a schedule",
        tier: Tier {
            gbco_rows: 50,
            synthetic_sources: GBCO_SOURCES,
            synthetic_rows: 50,
        },
        queries: 64,
        cache: CachePolicy::Cached,
        cache_capacity: None,
        skew: None,
        fresh: Some((3, 64)),
        readers: 1,
        warmup_reads: 64,
        writes: Writes::Beside {
            ingest_period: Duration::from_millis(750),
            // A feedback publish empties most of the cache, and the ingest
            // after it has a third of the work. With a feedback per ingest
            // the two kinds of ingest were even in number and their median
            // flipped from seed to seed; at one in 2 s the full-cache kind is
            // the majority.
            feedback_period: Duration::from_millis(2000),
            feedback_offset: Duration::from_millis(375),
        },
        replay_every: 4,
        trace_reads: 64,
        trace_writes: 8,
        trace_reads_per_write: 32,
    },
];

/// Exponent of `index = N·u^k` for `zipf_cached`: with 1024 queries over a
/// 256-entry FIFO cache this holds the steady hit ratio near 0.75 (pinned
/// by a unit test that simulates the cache).
pub const ZIPF_SKEW: f64 = 8.0;

/// Draws generated for a skewed workload: more than any window consumes.
const SEQUENCE_LEN: usize = 1 << 18;

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The reduced shape `--smoke` runs: no tier above 198 sources, short
/// traces.
pub fn smoke(mut workload: Workload) -> Workload {
    workload.tier.synthetic_sources = workload.tier.synthetic_sources.min(10 * GBCO_SOURCES);
    workload.warmup_reads = workload.warmup_reads.min(128);
    workload.trace_reads = workload.trace_reads.min(16);
    workload.trace_writes = workload.trace_writes.min(2);
    if let Writes::Between { ingests, feedbacks } = &mut workload.writes {
        // A warm-cache ingest at 198 sources is 5 s with its re-validation.
        *ingests = 1;
        *feedbacks = (*feedbacks).min(2);
    }
    workload
}

/// One generated write.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Ingest the i-th streamed source.
    Ingest(usize),
    /// Give feedback on the next trial whose view shows an answer.
    Feedback,
}

/// Everything generated from the seed for one workload.
pub struct Inputs {
    pub requests: Vec<QueryRequest>,
    /// `requests`, wire-encoded once so the clients only send bytes.
    pub request_bodies: Vec<String>,
    /// Indices into `requests`, in issue order; readers share one cursor.
    pub sequence: Vec<u32>,
    pub sources: Vec<SourceSpec>,
    pub source_bodies: Vec<String>,
    pub trials: Vec<Trial>,
    pub hash: u64,
}

/// How many streamed sources to generate: enough for the longest schedule.
fn sources_needed(workload: &Workload, window: Duration) -> usize {
    match workload.writes {
        Writes::Between { ingests, .. } => ingests,
        Writes::Beside { ingest_period, .. } => {
            crate::stats::schedule(Duration::ZERO, ingest_period, window).len()
        }
    }
    .max(workload.trace_writes)
}

/// A GBCO trial a user may give feedback on: the query that shows them the
/// view, and the feedback marking its first answer correct. Which trial is
/// used is decided when the feedback is sent — a user marks an answer they
/// can see, and earlier feedback and ingests change what each view holds.
pub struct Trial {
    pub look: QueryRequest,
    pub look_body: String,
    pub feedback: FeedbackRequest,
    pub feedback_body: String,
}

fn trials() -> Vec<Trial> {
    gbco_trials()
        .into_iter()
        .map(|trial| {
            let look =
                QueryRequest::new(trial.keywords.iter().cloned()).cache_policy(CachePolicy::Bypass);
            let feedback =
                FeedbackRequest::on_keywords(trial.keywords, Feedback::Correct { answer: 0 });
            Trial {
                look_body: wire::encode_query(&look).encode(),
                feedback_body: wire::encode_feedback(&feedback).encode(),
                look,
                feedback,
            }
        })
        .collect()
}

/// The first trial, from `from` on and wrapping round, for which `has_answer`
/// holds.
pub fn visible_trial(
    trials: &[Trial],
    from: usize,
    mut has_answer: impl FnMut(&Trial) -> bool,
) -> Option<usize> {
    (0..trials.len())
        .map(|step| (from + step) % trials.len())
        .find(|&t| has_answer(&trials[t]))
}

impl Inputs {
    pub fn generate(
        workload: &Workload,
        snapshot: &GraphSnapshot,
        seed: u64,
        window: Duration,
    ) -> Inputs {
        let (every, fresh) = workload.fresh.unwrap_or((0, 0));
        let requests: Vec<QueryRequest> =
            gen::keyword_queries(snapshot.catalog(), workload.queries + fresh, seed)
                .into_iter()
                .enumerate()
                .map(|(i, keywords)| {
                    let policy = if i < workload.queries {
                        workload.cache
                    } else {
                        CachePolicy::Bypass
                    };
                    QueryRequest::new(keywords).cache_policy(policy)
                })
                .collect();
        let sequence = match (workload.skew, workload.fresh) {
            (Some(skew), _) => gen::skewed_sequence(workload.queries, SEQUENCE_LEN, skew, seed),
            (None, None) => (0..workload.queries as u32).collect(),
            // A repeated query in the first of every `every` places, fresh
            // ones in the rest, until both lists have been through.
            (None, Some(_)) => (0..every * workload.queries.max(fresh))
                .map(|i| {
                    if i % every == 0 {
                        (i / every % workload.queries) as u32
                    } else {
                        (workload.queries + (i - i / every - 1) % fresh) as u32
                    }
                })
                .collect(),
        };
        let sources = gen::streamed_sources(sources_needed(workload, window), seed);
        let keywords: Vec<Vec<String>> = requests.iter().map(|r| r.keywords().to_vec()).collect();
        Inputs {
            hash: gen::workload_hash(&keywords, &sequence, &sources),
            request_bodies: requests
                .iter()
                .map(|r| wire::encode_query(r).encode())
                .collect(),
            source_bodies: sources
                .iter()
                .map(|s| wire::encode_ingest(s).encode())
                .collect(),
            trials: trials(),
            requests,
            sequence,
            sources,
        }
    }

    /// The `i`-th read of the workload.
    pub fn read(&self, i: usize) -> usize {
        self.sequence[i % self.sequence.len()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// The server's answer cache evicts first-in first-out.
    #[test]
    fn zipf_skew_holds_the_hit_ratio_between_70_and_80_percent() {
        let w = by_name("zipf_cached").unwrap();
        let capacity = w.cache_capacity.unwrap();
        for seed in [1, 2, 3] {
            let sequence = gen::skewed_sequence(w.queries, 40_000, ZIPF_SKEW, seed);
            let mut order = VecDeque::new();
            let mut cached = HashSet::new();
            let (mut hits, mut counted) = (0usize, 0usize);
            for (i, index) in sequence.iter().enumerate() {
                let hit = cached.contains(index);
                if !hit {
                    cached.insert(*index);
                    order.push_back(*index);
                    if order.len() > capacity {
                        cached.remove(&order.pop_front().unwrap());
                    }
                }
                if i >= w.warmup_reads {
                    counted += 1;
                    hits += usize::from(hit);
                }
            }
            let ratio = hits as f64 / counted as f64;
            assert!((0.70..=0.80).contains(&ratio), "seed {seed}: {ratio}");
        }
    }
}
