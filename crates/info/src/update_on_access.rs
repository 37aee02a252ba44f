//! The update-on-access model: per-client snapshots (§3.2).

use staleload_cluster::Cluster;
use staleload_policies::{InfoAge, LoadView};
use staleload_sim::SimRng;

use crate::InfoModel;

/// Update-on-access information: when a client's request reaches a server,
/// the reply carries a snapshot of the whole system's loads; the client's
/// *next* request decides on that snapshot.
///
/// The age of a client's information therefore equals its inter-request
/// time, which the client knows exactly (it can timestamp its own
/// requests) — so views report the *actual* age. The snapshot taken at
/// placement time includes the job just placed.
///
/// Clients start with an "empty system" snapshot dated time 0, matching a
/// cold start in which nothing has been learned yet.
#[derive(Debug, Clone)]
pub struct UpdateOnAccess {
    /// Flattened `clients × n` snapshot matrix.
    snapshots: Vec<u32>,
    taken_at: Vec<f64>,
    servers: usize,
}

impl UpdateOnAccess {
    /// Creates the model for `clients` clients observing `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0` or `servers == 0`.
    pub fn new(clients: usize, servers: usize) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(servers > 0, "need at least one server");
        Self {
            snapshots: vec![0; clients * servers],
            taken_at: vec![0.0; clients],
            servers,
        }
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.taken_at.len()
    }

    fn snapshot(&self, client: usize) -> &[u32] {
        &self.snapshots[client * self.servers..(client + 1) * self.servers]
    }
}

impl InfoModel for UpdateOnAccess {
    fn next_event(&self) -> Option<f64> {
        None
    }

    fn on_event(&mut self, _now: f64, _cluster: &Cluster) {}

    fn view<'a>(
        &'a mut self,
        now: f64,
        client: usize,
        _cluster: &'a mut Cluster,
        _rng: &mut SimRng,
    ) -> LoadView<'a> {
        let age = (now - self.taken_at[client]).max(0.0);
        LoadView {
            loads: self.snapshot(client),
            info: InfoAge::Aged { age },
            ages: None,
        }
    }

    fn after_placement(&mut self, now: f64, client: usize, cluster: &Cluster) {
        let dst = &mut self.snapshots[client * self.servers..(client + 1) * self.servers];
        dst.copy_from_slice(cluster.loads());
        self.taken_at[client] = now;
    }

    fn required_history_window(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staleload_cluster::Job;

    #[test]
    fn clients_have_independent_views() {
        let mut rng = SimRng::from_seed(1);
        let mut cluster = Cluster::new(2);
        let mut model = UpdateOnAccess::new(2, 2);

        // Client 0 places a job at t = 1 and snapshots the result.
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        model.after_placement(1.0, 0, &cluster);

        // Client 0 sees its snapshot; client 1 still sees the cold start.
        let v0 = model.view(4.0, 0, &mut cluster, &mut rng);
        assert_eq!(v0.loads, &[1, 0]);
        assert_eq!(v0.info, InfoAge::Aged { age: 3.0 });
        let v1 = model.view(4.0, 1, &mut cluster, &mut rng);
        assert_eq!(v1.loads, &[0, 0]);
        assert_eq!(v1.info, InfoAge::Aged { age: 4.0 });
    }

    #[test]
    fn snapshot_includes_own_job() {
        let mut rng = SimRng::from_seed(2);
        let mut cluster = Cluster::new(1);
        let mut model = UpdateOnAccess::new(1, 1);
        cluster.enqueue(0, Job::new(0, 2.0, 5.0), 2.0);
        model.after_placement(2.0, 0, &cluster);
        let v = model.view(2.5, 0, &mut cluster, &mut rng);
        assert_eq!(v.loads, &[1]);
        assert_eq!(v.info, InfoAge::Aged { age: 0.5 });
    }

    #[test]
    fn age_resets_on_each_placement() {
        let mut rng = SimRng::from_seed(3);
        let mut cluster = Cluster::new(1);
        let mut model = UpdateOnAccess::new(1, 1);
        cluster.enqueue(0, Job::new(0, 1.0, 100.0), 1.0);
        model.after_placement(1.0, 0, &cluster);
        cluster.enqueue(0, Job::new(1, 6.0, 100.0), 6.0);
        model.after_placement(6.0, 0, &cluster);
        let v = model.view(7.0, 0, &mut cluster, &mut rng);
        assert_eq!(v.info, InfoAge::Aged { age: 1.0 });
        assert_eq!(v.loads, &[2]);
    }
}
