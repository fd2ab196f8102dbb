//! Standing an engine up over a dataset, timed, and tearing it down.

use crate::workload::{Dataset, Workload};
use skalla_core::{SiteServer, Skalla};
use skalla_net::TcpConfig;
use skalla_obs::Obs;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

type SiteThread = JoinHandle<skalla_relation::Result<()>>;

/// A running engine plus, for the TCP backend, the threads serving its
/// sites. Dropping it shuts the engine down and joins every thread.
pub struct Deployment {
    engine: Option<Skalla>,
    sites: Vec<SiteThread>,
}

impl Deployment {
    /// Hand fresh copies of the partitions to a new engine for `workload`
    /// and return it with its set-up time: builder `build()`, plus site
    /// bind, accept, connect and catalog handshake on TCP. Copying the
    /// data is not timed.
    pub fn start(
        data: &Dataset,
        workload: Workload,
        obs: Obs,
    ) -> Result<(Deployment, f64), String> {
        let parts = data.fresh_parts();
        let t0 = Instant::now();
        if !workload.tcp() {
            let engine = Skalla::builder()
                .partitions(data.table, parts)
                .eval_options(workload.eval_options())
                .obs(obs)
                .build()
                .map_err(|e| format!("engine build: {e}"))?;
            let setup_s = t0.elapsed().as_secs_f64();
            return Ok((
                Deployment {
                    engine: Some(engine),
                    sites: Vec::new(),
                },
                setup_s,
            ));
        }
        let mut addrs = Vec::with_capacity(parts.len());
        let mut sites = Vec::with_capacity(parts.len());
        for part in parts {
            let catalog = HashMap::from([(data.table.to_string(), Arc::new(part.relation))]);
            let domains = HashMap::from([(data.table.to_string(), part.domains)]);
            let server = SiteServer::bind("127.0.0.1:0", catalog, domains, TcpConfig::default())
                .map_err(|e| format!("site bind: {e}"))?;
            addrs.push(server.local_addr().map_err(|e| e.to_string())?.to_string());
            sites.push(std::thread::spawn(move || server.serve_once()));
        }
        let built = Skalla::builder()
            .remote(&addrs, TcpConfig::default())
            .eval_options(workload.eval_options())
            .obs(obs)
            .build();
        let setup_s = t0.elapsed().as_secs_f64();
        match built {
            Ok(engine) => Ok((
                Deployment {
                    engine: Some(engine),
                    sites,
                },
                setup_s,
            )),
            Err(e) => {
                // Unblock sites still waiting in accept so they can be joined.
                for addr in &addrs {
                    let _ = TcpStream::connect(addr);
                }
                for site in sites {
                    let _ = site.join();
                }
                Err(format!("engine connect: {e}"))
            }
        }
    }

    /// The engine.
    pub fn engine(&self) -> &Skalla {
        self.engine.as_ref().expect("engine lives until drop")
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Dropping the engine broadcasts shutdown; TCP sites then return
        // from their session.
        drop(self.engine.take());
        for site in self.sites.drain(..) {
            if let Ok(Err(e)) = site.join() {
                eprintln!("olapbench: site session ended with error: {e}");
            }
        }
    }
}
