//! The correctness gate: every answer a run produced is compared, after
//! the timed window, with the serial oracle in `gr_algorithms::reference`.

use std::collections::{BTreeMap, HashMap};

use gr_algorithms::reference;
use gr_algorithms::PageRank;
use gr_graph::GraphLayout;
use gr_serve::QueryOutput;

use crate::common::Report;

/// Largest relative difference allowed between a PageRank score and the
/// oracle's. The engine is bit-identical to the oracle today; the
/// tolerance leaves room for a reordered floating-point reduction.
pub const PAGERANK_REL_TOL: f32 = 1e-4;

/// What an answer answers: the algorithm and its source (0 for PageRank
/// and CC, which take none).
pub type Key = (&'static str, u32);

/// The answers of a run, kept for the gate with memory bounded by the
/// number of distinct keys, not of jobs: the first answer per key in full,
/// and for every later one whether it equals that first answer.
#[derive(Default)]
pub struct Answers {
    first: BTreeMap<Key, QueryOutput>,
    later: Vec<(Key, bool)>,
    /// Queries that returned an error instead of an answer.
    errors: Vec<String>,
}

impl Answers {
    /// Record a query's outcome: its answer, or the error it returned.
    pub fn record_result<T>(
        &mut self,
        key: Key,
        result: Result<T, graphreduce::EngineError>,
        answer: impl FnOnce(T) -> QueryOutput,
    ) {
        match result {
            Ok(r) => self.record(key, answer(r)),
            Err(e) => self.errors.push(format!("{} from {}: {e}", key.0, key.1)),
        }
    }

    pub fn record(&mut self, key: Key, answer: QueryOutput) {
        let same = match self.first.get(&key) {
            Some(first) => *first == answer,
            None => {
                self.first.insert(key, answer);
                true
            }
        };
        self.later.push((key, same));
    }

    /// Check each first answer against the oracle, then tally every
    /// answer in `report`; mismatches go to the report's notes.
    pub fn check(self, layout: &GraphLayout, pagerank: &PageRank, report: &mut Report) {
        let mut oracle = Oracle::new(layout);
        let verdicts: BTreeMap<Key, bool> = self
            .first
            .iter()
            .map(|(key, answer)| {
                let ok = match answer {
                    QueryOutput::Depths(d) => oracle.bfs(key.1, d),
                    QueryOutput::Distances(d) => oracle.sssp(key.1, d),
                    QueryOutput::Ranks(r) => oracle.pagerank(pagerank, r),
                    QueryOutput::Components(c) => oracle.cc(c),
                };
                (*key, ok)
            })
            .collect();
        for (key, same) in self.later {
            if !same {
                oracle.mismatches.push(format!(
                    "{} from {}: an answer differs from an earlier one",
                    key.0, key.1
                ));
            }
            report.tally(same && verdicts[&key]);
        }
        for e in self.errors {
            report.tally(false);
            report.notes.push(e);
        }
        report.notes.extend(oracle.mismatches);
    }
}

pub struct Oracle<'g> {
    layout: &'g GraphLayout,
    bfs: HashMap<u32, Vec<u32>>,
    sssp: HashMap<u32, Vec<f32>>,
    pagerank: Option<Vec<f32>>,
    /// CC labelings already proven to be component minima.
    cc_ok: Vec<Vec<u32>>,
    /// Human-readable description of each mismatch found.
    pub mismatches: Vec<String>,
}

impl<'g> Oracle<'g> {
    pub fn new(layout: &'g GraphLayout) -> Oracle<'g> {
        Oracle {
            layout,
            bfs: HashMap::new(),
            sssp: HashMap::new(),
            pagerank: None,
            cc_ok: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    fn verdict(&mut self, ok: bool, what: String) -> bool {
        if !ok {
            self.mismatches.push(what);
        }
        ok
    }

    pub fn bfs(&mut self, source: u32, got: &[u32]) -> bool {
        let layout = self.layout;
        let want = self
            .bfs
            .entry(source)
            .or_insert_with(|| reference::bfs(layout, source));
        let ok = want.as_slice() == got;
        self.verdict(
            ok,
            format!("bfs from {source}: depths differ from the oracle"),
        )
    }

    pub fn sssp(&mut self, source: u32, got: &[f32]) -> bool {
        let layout = self.layout;
        let want = self
            .sssp
            .entry(source)
            .or_insert_with(|| reference::sssp(layout, source));
        let ok = want
            .iter()
            .zip(got)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && want.len() == got.len();
        self.verdict(
            ok,
            format!("sssp from {source}: distances differ from the oracle"),
        )
    }

    pub fn pagerank(&mut self, prog: &PageRank, got: &[f32]) -> bool {
        let layout = self.layout;
        let want = self.pagerank.get_or_insert_with(|| {
            reference::pagerank_frontier(layout, prog.damping, prog.epsilon, prog.max_iters)
        });
        let ok = want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(w, g)| (w - g).abs() <= PAGERANK_REL_TOL * w.abs().max(1.0));
        self.verdict(
            ok,
            format!("pagerank: a score differs from the oracle by more than {PAGERANK_REL_TOL} relative"),
        )
    }

    pub fn cc(&mut self, got: &[u32]) -> bool {
        if self.cc_ok.iter().any(|ok| ok == got) {
            return true;
        }
        let layout = self.layout;
        let ok = std::panic::catch_unwind(|| reference::check_cc_labels(layout, got)).is_ok();
        if ok {
            self.cc_ok.push(got.to_vec());
        }
        self.verdict(ok, "cc: labels are not the component minima".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_graph::gen;

    /// Component minima by BFS from each vertex not yet labelled, in
    /// increasing order (the graph is symmetric).
    fn cc_labels(layout: &GraphLayout) -> Vec<u32> {
        let mut labels = vec![u32::MAX; layout.num_vertices() as usize];
        for v in 0..layout.num_vertices() {
            if labels[v as usize] == u32::MAX {
                for (u, d) in reference::bfs(layout, v).iter().enumerate() {
                    if *d != u32::MAX {
                        labels[u] = v;
                    }
                }
            }
        }
        labels
    }

    #[test]
    fn oracle_accepts_reference_answers_and_rejects_corrupted_ones() {
        let el = gen::with_random_weights(gen::uniform(300, 900, 3), 4.0, 4).symmetrize();
        let layout = GraphLayout::build(&el);
        let pr = PageRank::default();
        let mut bfs = reference::bfs(&layout, 5);
        let mut sssp = reference::sssp(&layout, 5);
        let mut ranks = reference::pagerank_frontier(&layout, pr.damping, pr.epsilon, pr.max_iters);
        let mut labels = cc_labels(&layout);
        let mut oracle = Oracle::new(&layout);
        assert!(oracle.bfs(5, &bfs));
        assert!(oracle.sssp(5, &sssp));
        assert!(oracle.pagerank(&pr, &ranks));
        assert!(oracle.cc(&labels));
        assert!(oracle.mismatches.is_empty());

        let v = (0..bfs.len())
            .find(|&v| v != 5 && bfs[v] != u32::MAX)
            .expect("source 5 reaches another vertex");
        bfs[v] += 1;
        sssp[v] += 1.0;
        ranks[v] *= 1.01;
        labels[299] = labels[299].wrapping_add(1);
        assert!(!oracle.bfs(5, &bfs));
        assert!(!oracle.sssp(5, &sssp));
        assert!(!oracle.pagerank(&pr, &ranks));
        assert!(!oracle.cc(&labels));
        assert_eq!(oracle.mismatches.len(), 4);
    }
}

#[cfg(test)]
mod answers_tests {
    use super::*;
    use gr_graph::gen;

    #[test]
    fn every_answer_is_tallied_and_a_differing_repeat_fails() {
        let layout = GraphLayout::build(&gen::uniform(100, 400, 9).symmetrize());
        let want = reference::bfs(&layout, 3);
        let mut wrong = want.clone();
        wrong[0] = wrong[0].wrapping_add(1);
        let mut answers = Answers::default();
        answers.record(("bfs", 3), QueryOutput::Depths(want.clone()));
        answers.record(("bfs", 3), QueryOutput::Depths(want));
        answers.record(("bfs", 3), QueryOutput::Depths(wrong));
        let mut report = Report::default();
        answers.check(&layout, &PageRank::default(), &mut report);
        assert_eq!((report.attempted, report.failed), (3, 1));
    }
}
