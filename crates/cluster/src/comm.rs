//! MPI-like collectives over the simulated interconnect.
//!
//! The paper's kernels use exactly the textbook MPI pattern: the master
//! reads input, `MPI_Scatter`s matrix A, `MPI_Bcast`s matrix B, everyone
//! computes, and the master `MPI_Gather`s C. These collectives are built
//! on [`simcore::Rendezvous`]: all ranks arrive, the last arrival resolves
//! the exchange by charging per-message network costs (which queue on the
//! senders' TX and receivers' RX NICs, reproducing the linear broadcast
//! growth visible in the paper's Fig. 3), and every rank leaves at its own
//! message-arrival time.

use crate::calib::Calibration;
use netsim::Network;
use nvmalloc::Pod;
use simcore::{ProcCtx, Rendezvous, Resolution, VTime};
use std::rc::Rc;

/// Message payloads must expose their wire size for time charging.
pub trait Payload: 'static {
    fn nbytes(&self) -> u64;
}

impl<T: Pod> Payload for Vec<T> {
    fn nbytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }
}

impl Payload for () {
    fn nbytes(&self) -> u64 {
        0
    }
}

impl Payload for u64 {
    fn nbytes(&self) -> u64 {
        8
    }
}

impl Payload for String {
    fn nbytes(&self) -> u64 {
        self.len() as u64
    }
}

/// Broadcasting an `Rc` charges the inner payload's wire size while
/// sharing one host-side copy — the simulation moves real bytes once.
impl<P: Payload> Payload for Rc<P> {
    fn nbytes(&self) -> u64 {
        (**self).nbytes()
    }
}

/// A communicator over a fixed set of ranks.
#[derive(Clone)]
pub struct Comm {
    rv: Rendezvous,
    net: Network,
    node_of_rank: Rc<Vec<usize>>,
    calib: Calibration,
}

impl Comm {
    pub fn new(net: Network, node_of_rank: Vec<usize>, calib: Calibration) -> Self {
        assert!(!node_of_rank.is_empty());
        Comm {
            rv: Rendezvous::new(node_of_rank.len()),
            net,
            node_of_rank: Rc::new(node_of_rank),
            calib,
        }
    }

    pub fn size(&self) -> usize {
        self.node_of_rank.len()
    }

    /// Synchronize all ranks; everyone leaves at the max arrival time plus
    /// a logarithmic synchronization overhead.
    pub fn barrier(&self, ctx: &mut ProcCtx, rank: usize) {
        let n = self.size();
        let overhead =
            netsim::LATENCY * (usize::BITS - (n - 1).leading_zeros().min(usize::BITS - 1)) as u64;
        self.rv
            .barrier(ctx, rank, if n > 1 { overhead } else { VTime::ZERO });
    }

    /// Broadcast `data` (Some at `root`, None elsewhere) to every rank.
    ///
    /// Shared-memory-aware delivery, like the era's OpenMPI `sm` BTL: the
    /// root sends one message per *remote node* (queued on its TX NIC —
    /// linear growth with node count), and every additional rank on a node
    /// receives by memcpy from the first arrival on that node.
    pub fn bcast<T: Payload + Clone>(
        &self,
        ctx: &mut ProcCtx,
        rank: usize,
        root: usize,
        data: Option<T>,
    ) -> T {
        assert_eq!(data.is_some(), rank == root, "exactly the root passes data");
        let n = self.size();
        let net = self.net.clone();
        let nodes = Rc::clone(&self.node_of_rank);
        let calib = self.calib;
        self.rv.sync(ctx, rank, data, move |clocks, mut payloads| {
            let data = payloads[root].take().expect("root payload");
            let bytes = data.nbytes();
            let t_start = clocks[root];
            let root_node = nodes[root];
            let mut release = vec![VTime::ZERO; n];
            let mut root_done = t_start;
            // One wire transfer per distinct remote node.
            let mut node_arrival: std::collections::BTreeMap<usize, VTime> =
                std::collections::BTreeMap::new();
            node_arrival.insert(root_node, t_start);
            for i in 0..n {
                let node = nodes[i];
                node_arrival.entry(node).or_insert_with(|| {
                    let d = net.transfer_at(t_start, root_node, node, bytes);
                    root_done = root_done.max(d.sent);
                    d.arrived
                });
            }
            // Per-rank delivery: first rank on a node gets the wire copy,
            // later ranks on the same node pay sequential memcpys.
            let mut copies_on_node: std::collections::BTreeMap<usize, u64> =
                std::collections::BTreeMap::new();
            for i in 0..n {
                if i == root {
                    continue;
                }
                let node = nodes[i];
                let wire = node_arrival[&node];
                let prior = copies_on_node.entry(node).or_insert(0);
                let arrival = if node == root_node || *prior > 0 {
                    *prior += 1;
                    wire + calib.memcpy_time(bytes) * *prior
                } else {
                    *prior += 1;
                    wire
                };
                release[i] = arrival.max(clocks[i]);
            }
            release[root] = root_done.max(t_start);
            Resolution {
                results: vec![data; n],
                release,
            }
        })
    }

    /// Scatter: root provides one part per rank; rank `i` receives part `i`.
    pub fn scatter<T: Payload>(
        &self,
        ctx: &mut ProcCtx,
        rank: usize,
        root: usize,
        parts: Option<Vec<T>>,
    ) -> T {
        assert_eq!(parts.is_some(), rank == root);
        let n = self.size();
        if let Some(ref p) = parts {
            assert_eq!(p.len(), n, "scatter needs one part per rank");
        }
        let net = self.net.clone();
        let nodes = Rc::clone(&self.node_of_rank);
        let calib = self.calib;
        self.rv.sync(ctx, rank, parts, move |clocks, mut payloads| {
            let parts = payloads[root].take().expect("root payload");
            let t_start = clocks[root];
            let root_node = nodes[root];
            let mut release = vec![VTime::ZERO; n];
            let mut root_done = t_start;
            let mut results: Vec<Option<T>> = Vec::with_capacity(n);
            for (i, part) in parts.into_iter().enumerate() {
                let bytes = part.nbytes();
                if i == root {
                    release[i] = t_start; // provisional; fixed below
                } else if nodes[i] == root_node {
                    release[i] = (t_start + calib.memcpy_time(bytes)).max(clocks[i]);
                } else {
                    let d = net.transfer_at(t_start, root_node, nodes[i], bytes);
                    root_done = root_done.max(d.sent);
                    release[i] = d.arrived.max(clocks[i]);
                }
                results.push(Some(part));
            }
            release[root] = root_done;
            Resolution {
                results: results.into_iter().map(|p| p.expect("part")).collect(),
                release,
            }
        })
    }

    /// Gather: every rank sends its part to `root`, which receives the
    /// full vector (None elsewhere).
    pub fn gather<T: Payload>(
        &self,
        ctx: &mut ProcCtx,
        rank: usize,
        root: usize,
        part: T,
    ) -> Option<Vec<T>> {
        let n = self.size();
        let net = self.net.clone();
        let nodes = Rc::clone(&self.node_of_rank);
        let calib = self.calib;
        let out: Option<Vec<T>> = self.rv.sync(ctx, rank, part, move |clocks, payloads| {
            let root_node = nodes[root];
            let mut release = vec![VTime::ZERO; n];
            let mut root_ready = clocks[root];
            for (i, p) in payloads.iter().enumerate() {
                let bytes = p.nbytes();
                if i == root {
                    release[i] = clocks[i];
                } else if nodes[i] == root_node {
                    let arr = clocks[i] + calib.memcpy_time(bytes);
                    release[i] = clocks[i];
                    root_ready = root_ready.max(arr);
                } else {
                    let d = net.transfer_at(clocks[i], nodes[i], root_node, bytes);
                    release[i] = d.sent.max(clocks[i]);
                    root_ready = root_ready.max(d.arrived);
                }
            }
            release[root] = root_ready;
            let mut results: Vec<Option<Vec<T>>> = (0..n).map(|_| None).collect();
            results[root] = Some(payloads);
            Resolution { results, release }
        });
        out
    }

    /// Personalized all-to-all: rank `i` provides `parts[j]` for each `j`
    /// and receives `Vec` whose `j`-th entry came from rank `j`.
    pub fn all_to_all<T: Payload>(&self, ctx: &mut ProcCtx, rank: usize, parts: Vec<T>) -> Vec<T> {
        let n = self.size();
        assert_eq!(parts.len(), n, "all_to_all needs one part per peer");
        let net = self.net.clone();
        let nodes = Rc::clone(&self.node_of_rank);
        let calib = self.calib;
        self.rv.sync(ctx, rank, parts, move |clocks, payloads| {
            // payloads[i][j] = part from i to j. Charge every pair.
            let mut arrival = vec![VTime::ZERO; n];
            let mut sender_done: Vec<VTime> = clocks.to_vec();
            // Deterministic order: by sender, then receiver.
            let sizes: Vec<Vec<u64>> = payloads
                .iter()
                .map(|row| row.iter().map(|p| p.nbytes()).collect())
                .collect();
            for (i, row) in sizes.iter().enumerate() {
                for (j, &bytes) in row.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if nodes[i] == nodes[j] {
                        arrival[j] = arrival[j].max(clocks[i] + calib.memcpy_time(bytes));
                    } else {
                        let d = net.transfer_at(clocks[i], nodes[i], nodes[j], bytes);
                        sender_done[i] = sender_done[i].max(d.sent);
                        arrival[j] = arrival[j].max(d.arrived);
                    }
                }
            }
            // Transpose the payload matrix.
            let mut incoming: Vec<Vec<Option<T>>> =
                (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
            for (i, row) in payloads.into_iter().enumerate() {
                for (j, part) in row.into_iter().enumerate() {
                    incoming[j][i] = Some(part);
                }
            }
            let release: Vec<VTime> = (0..n)
                .map(|j| sender_done[j].max(arrival[j]).max(clocks[j]))
                .collect();
            Resolution {
                results: incoming
                    .into_iter()
                    .map(|row| row.into_iter().map(|p| p.expect("part")).collect())
                    .collect(),
                release,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Engine, StatsRegistry};

    fn run_ranks(nodes: Vec<usize>, body: impl Fn(&mut ProcCtx, usize, Comm)) {
        let stats = StatsRegistry::new();
        let n_nodes = nodes.iter().max().unwrap() + 1;
        let net = Network::new(n_nodes, &stats);
        let comm = Comm::new(net, nodes.clone(), Calibration::default());
        let body = &body;
        Engine::run(
            (0..nodes.len())
                .map(|r| {
                    let comm = comm.clone();
                    move |ctx: &mut ProcCtx| body(ctx, r, comm)
                })
                .collect(),
        );
    }

    #[test]
    fn bcast_delivers_to_all() {
        run_ranks(vec![0, 0, 1, 1], |ctx, rank, comm| {
            let data = if rank == 1 {
                Some(vec![1u64, 2, 3])
            } else {
                None
            };
            let got = comm.bcast(ctx, rank, 1, data);
            assert_eq!(got, vec![1, 2, 3]);
        });
    }

    #[test]
    fn bcast_remote_costs_more_than_local() {
        // Rank 0 (root, node 0), rank 1 on node 0, rank 2 on node 1.
        let stats = StatsRegistry::new();
        let net = Network::new(2, &stats);
        let comm = Comm::new(net, vec![0, 0, 1], Calibration::default());
        let data = vec![0u8; 25_000_000]; // 25 MB: 0.1 s on the wire
        let comm2 = comm.clone();
        let comm3 = comm.clone();
        let d2 = data.clone();
        let report = Engine::run(vec![
            Box::new(move |ctx: &mut ProcCtx| {
                comm.bcast(ctx, 0, 0, Some(d2));
            }) as Box<dyn FnOnce(&mut ProcCtx)>,
            Box::new(move |ctx: &mut ProcCtx| {
                comm2.bcast::<Vec<u8>>(ctx, 1, 0, None);
            }),
            Box::new(move |ctx: &mut ProcCtx| {
                comm3.bcast::<Vec<u8>>(ctx, 2, 0, None);
            }),
        ]);
        let local = report.finish_times[1];
        let remote = report.finish_times[2];
        assert!(remote > local, "remote {remote} vs local {local}");
        assert!(remote >= VTime::from_millis(100), "wire time: {remote}");
    }

    #[test]
    fn scatter_distributes_parts() {
        run_ranks(vec![0, 1, 2], |ctx, rank, comm| {
            let parts = (rank == 0).then(|| vec![vec![0u32], vec![10u32], vec![20u32]]);
            let mine = comm.scatter(ctx, rank, 0, parts);
            assert_eq!(mine, vec![(rank as u32) * 10]);
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        run_ranks(vec![0, 1, 0, 1], |ctx, rank, comm| {
            let got = comm.gather(ctx, rank, 2, vec![rank as u64]);
            if rank == 2 {
                let flat: Vec<u64> = got.unwrap().into_iter().flatten().collect();
                assert_eq!(flat, vec![0, 1, 2, 3]);
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn all_to_all_transposes() {
        run_ranks(vec![0, 1, 2], |ctx, rank, comm| {
            let parts: Vec<Vec<u64>> = (0..3).map(|j| vec![(rank * 10 + j) as u64]).collect();
            let got = comm.all_to_all(ctx, rank, parts);
            let flat: Vec<u64> = got.into_iter().flatten().collect();
            assert_eq!(flat, vec![rank as u64, 10 + rank as u64, 20 + rank as u64]);
        });
    }

    #[test]
    fn barrier_aligns() {
        run_ranks(vec![0, 1], |ctx, rank, comm| {
            if rank == 0 {
                ctx.advance(VTime::from_secs(1));
            }
            comm.barrier(ctx, rank);
            assert!(ctx.now() >= VTime::from_secs(1));
        });
    }

    #[test]
    fn more_remote_receivers_lengthen_bcast() {
        // Linear broadcast: root TX serializes — 4 remote receivers take
        // about twice as long as 2.
        let time_for = |receivers: usize| {
            let stats = StatsRegistry::new();
            let net = Network::new(receivers + 1, &stats);
            let nodes: Vec<usize> = std::iter::once(0).chain(1..=receivers).collect();
            let comm = Comm::new(net, nodes, Calibration::default());
            let data = vec![0u8; 25_000_000];
            let report = Engine::run(
                (0..=receivers)
                    .map(|r| {
                        let comm = comm.clone();
                        let data = (r == 0).then(|| data.clone());
                        move |ctx: &mut ProcCtx| {
                            comm.bcast(ctx, r, 0, data);
                        }
                    })
                    .collect(),
            );
            report.makespan
        };
        let t2 = time_for(2);
        let t4 = time_for(4);
        let ratio = t4.as_secs_f64() / t2.as_secs_f64();
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }
}
