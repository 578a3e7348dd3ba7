//! The batch engine: fan a set of solvers across many instances on a
//! thread pool, deterministically.

use crate::{Instance, Solution, SolveConfig, SolveError, SolverRegistry};
use lmds_graph::par;

/// One unit of batch work: solver key + config, applied to one instance
/// of the batch.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Registry key of the solver to run.
    pub solver: String,
    /// The configuration to run it under.
    pub config: SolveConfig,
}

impl BatchJob {
    /// A job for `solver` under `config`.
    pub fn new(solver: impl Into<String>, config: SolveConfig) -> Self {
        BatchJob { solver: solver.into(), config }
    }
}

/// The outcome of one (job × instance) cell.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Name of the instance.
    pub instance: String,
    /// Solver key.
    pub solver: String,
    /// The solve outcome.
    pub result: Result<Solution, SolveError>,
}

/// Fans (job × instance) cells across worker threads. Output order is
/// deterministic — `records[j * instances.len() + i]` is job `j` on
/// instance `i` — regardless of scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchRunner;

impl BatchRunner {
    /// A runner; its worker count follows the [`lmds_graph::par`]
    /// policy (the machine's parallelism, capped at 8 and at the cell
    /// count).
    pub fn new() -> Self {
        BatchRunner
    }

    /// Runs every job against every instance. Errors are per-record
    /// (an unknown key or unsupported mode fails that cell only).
    ///
    /// The cells drain across workers off a shared index. Each worker
    /// thread owns a pooled `lmds_graph::Scratch` (the thread-local pool
    /// behind every ball/component/domination query), grown to the
    /// largest instance of the batch — so the solver loop reuses one set
    /// of traversal buffers per worker instead of allocating per call.
    /// Distributed jobs share the same pools: the oracle's per-vertex
    /// ball queries run on the worker's warmed scratch.
    pub fn run(
        &self,
        registry: &SolverRegistry,
        jobs: &[BatchJob],
        instances: &[Instance],
    ) -> Vec<BatchRecord> {
        let total = jobs.len() * instances.len();
        Self::run_on(registry, jobs, instances, par::workers(total, 0, total))
    }

    /// [`BatchRunner::run`] on an explicit worker count.
    fn run_on(
        registry: &SolverRegistry,
        jobs: &[BatchJob],
        instances: &[Instance],
        workers: usize,
    ) -> Vec<BatchRecord> {
        let total = jobs.len() * instances.len();
        let max_n = instances.iter().map(Instance::n).max().unwrap_or(0);
        let per_worker =
            par::drain(workers, total, |done: &mut Vec<(usize, BatchRecord)>, cell| {
                lmds_graph::scratch::with_thread_scratch(|s| s.reserve(max_n));
                let (j, i) = (cell / instances.len(), cell % instances.len());
                let job = &jobs[j];
                let inst = &instances[i];
                let result = registry.solve(&job.solver, inst, &job.config);
                // Every batch solution passes the full certificate recheck
                // in debug builds.
                #[cfg(debug_assertions)]
                if let Ok(sol) = &result {
                    if let Err(e) = sol.verify(inst) {
                        panic!(
                            "batch solution {}/{} failed verification: {e}",
                            job.solver, inst.name
                        );
                    }
                }
                let record =
                    BatchRecord { instance: inst.name.clone(), solver: job.solver.clone(), result };
                done.push((cell, record));
            });
        let mut records: Vec<(usize, BatchRecord)> = per_worker.into_iter().flatten().collect();
        records.sort_unstable_by_key(|&(cell, _)| cell);
        records.into_iter().map(|(_, record)| record).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionMode, Problem};

    fn corpus() -> Vec<Instance> {
        vec![
            Instance::shuffled("path12", lmds_gen::basic::path(12), 1),
            Instance::shuffled("cycle9", lmds_gen::basic::cycle(9), 2),
            Instance::shuffled("tree14", lmds_gen::trees::random_tree(14, 3), 3),
        ]
    }

    #[test]
    fn cross_product_order_is_deterministic() {
        let registry = SolverRegistry::with_defaults();
        let jobs = vec![
            BatchJob::new("mds/theorem44", SolveConfig::mds()),
            BatchJob::new(
                "mds/trees-folklore",
                SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE),
            ),
        ];
        let instances = corpus();
        // Forced worker counts (the production policy may resolve to
        // one worker): every count reproduces the direct solves, in
        // row-major order.
        for workers in [1, 2, 4, 7] {
            let records = BatchRunner::run_on(&registry, &jobs, &instances, workers);
            assert_eq!(records.len(), 6);
            for (cell, rec) in records.iter().enumerate() {
                let (job, inst) = (&jobs[cell / 3], &instances[cell % 3]);
                assert_eq!(
                    (rec.solver.as_str(), rec.instance.as_str()),
                    (&*job.solver, &*inst.name)
                );
                let direct = registry.solve(&job.solver, inst, &job.config).unwrap();
                assert_eq!(
                    rec.result.as_ref().unwrap().vertices,
                    direct.vertices,
                    "workers={workers} cell={cell}"
                );
            }
            // Row-major: job 0 covers the instances first.
            assert_eq!(records[0].solver, "mds/theorem44");
            assert_eq!(records[0].instance, "path12");
            assert_eq!(records[3].solver, "mds/trees-folklore");
        }
    }

    #[test]
    fn per_cell_errors_do_not_poison_the_batch() {
        let registry = SolverRegistry::with_defaults();
        let jobs = vec![
            BatchJob::new("mds/unknown", SolveConfig::mds()),
            BatchJob::new("mds/theorem44", SolveConfig::mds()),
        ];
        let instances = corpus();
        let records = BatchRunner::new().run(&registry, &jobs, &instances);
        assert_eq!(records.len(), 6);
        assert!(records[..3].iter().all(|r| r.result.is_err()));
        assert!(records[3..].iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn batch_solutions_are_valid_across_modes() {
        let registry = SolverRegistry::with_defaults();
        let mut jobs = Vec::new();
        for mode in ExecutionMode::ALL {
            jobs.push(BatchJob::new("mds/algorithm1", SolveConfig::mds().mode(mode)));
            jobs.push(BatchJob::new("mvc/theorem44", SolveConfig::mvc().mode(mode)));
        }
        let instances = corpus();
        for rec in BatchRunner::new().run(&registry, &jobs, &instances) {
            let sol = rec.result.unwrap_or_else(|e| panic!("{}/{}: {e}", rec.solver, rec.instance));
            assert!(sol.is_valid(), "{}/{}", rec.solver, rec.instance);
            assert_eq!(
                sol.problem,
                if rec.solver.starts_with("mds") {
                    Problem::MinDominatingSet
                } else {
                    Problem::MinVertexCover
                }
            );
        }
    }
}
