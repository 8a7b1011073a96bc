//! Cluster presets.

use crate::machine::{LoadModel, Machine};
use crate::message::LinkModel;

/// A cluster: machines plus the LAN connecting them.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterSpec {
    pub machines: Vec<Machine>,
    pub link: LinkModel,
}

impl ClusterSpec {
    pub fn new(machines: Vec<Machine>, link: LinkModel) -> ClusterSpec {
        assert!(!machines.is_empty(), "cluster needs at least one machine");
        ClusterSpec { machines, link }
    }

    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }
}

/// The paper's testbed: twelve heterogeneous workstations — seven
/// high-speed, three medium-speed, two low-speed — on one LAN.
///
/// Speed ratios are not given in the paper; 1.0 / 0.6 / 0.35 reflects the
/// typical spread of a 2003-era lab. The two slow machines also carry
/// periodic background load ("speed **and load** differences").
pub fn paper_cluster() -> ClusterSpec {
    let mut machines = Vec::with_capacity(12);
    for i in 0..7 {
        machines.push(Machine::new(format!("fast{i}"), 1.0));
    }
    for i in 0..3 {
        machines.push(Machine::new(format!("medium{i}"), 0.6));
    }
    for i in 0..2 {
        machines.push(
            Machine::new(format!("slow{i}"), 0.35).with_load(LoadModel::Periodic {
                period: 20.0,
                duty: 0.4,
                busy_factor: 0.5,
            }),
        );
    }
    ClusterSpec::new(machines, LinkModel::default())
}

/// A homogeneous cluster of `n` unit-speed machines (control condition).
pub fn homogeneous(n: usize) -> ClusterSpec {
    assert!(n >= 1);
    let machines = (0..n)
        .map(|i| Machine::new(format!("node{i}"), 1.0))
        .collect();
    ClusterSpec::new(machines, LinkModel::default())
}

/// The zero-cost cluster: one unit-speed machine whose link has no
/// latency and unlimited bandwidth. Every message arrives the instant it
/// is sent, so the executor orders tasks by the work they charge alone.
pub fn zero_cost() -> ClusterSpec {
    ClusterSpec::new(
        vec![Machine::new("host", 1.0)],
        LinkModel {
            latency: 0.0,
            local_latency: 0.0,
            bytes_per_sec: f64::INFINITY,
        },
    )
}

/// Round-robin assignment of `n_procs` processes onto the machines,
/// fastest machines first — the placement strategy the experiments use.
pub fn round_robin_assignment(cluster: &ClusterSpec, n_procs: usize) -> Vec<usize> {
    // Sort machine indices by descending speed (stable: index breaks ties).
    let mut order: Vec<usize> = (0..cluster.num_machines()).collect();
    order.sort_by(|&a, &b| {
        cluster.machines[b]
            .speed
            .partial_cmp(&cluster.machines[a].speed)
            .expect("speeds are finite")
            .then(a.cmp(&b))
    });
    (0..n_procs).map(|i| order[i % order.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_has_twelve_machines_in_three_classes() {
        let c = paper_cluster();
        assert_eq!(c.num_machines(), 12);
        let fast = c.machines.iter().filter(|m| m.speed == 1.0).count();
        let medium = c.machines.iter().filter(|m| m.speed == 0.6).count();
        let slow = c.machines.iter().filter(|m| m.speed == 0.35).count();
        assert_eq!((fast, medium, slow), (7, 3, 2));
    }

    #[test]
    fn slow_machines_carry_load() {
        let c = paper_cluster();
        let loaded = c
            .machines
            .iter()
            .filter(|m| m.load != LoadModel::None)
            .count();
        assert_eq!(loaded, 2);
    }

    #[test]
    fn round_robin_prefers_fast_machines() {
        let c = paper_cluster();
        let assignment = round_robin_assignment(&c, 5);
        for &m in &assignment {
            assert_eq!(c.machines[m].speed, 1.0, "first 5 procs go to fast nodes");
        }
        // 13th process wraps around to the fastest machine again.
        let wrap = round_robin_assignment(&c, 13);
        assert_eq!(wrap[12], wrap[0]);
    }

    #[test]
    fn homogeneous_uniform_speed() {
        let c = homogeneous(4);
        assert!(c.machines.iter().all(|m| m.speed == 1.0));
    }

    #[test]
    fn zero_cost_link_delivers_any_size_instantly() {
        let c = zero_cost();
        assert_eq!(c.num_machines(), 1);
        assert_eq!(c.link.transfer_time(0, 0, u64::MAX), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn rejects_empty_cluster() {
        ClusterSpec::new(vec![], LinkModel::default());
    }
}
