//! Device configuration and cost model (paper Table II + §III costs).
//!
//! [`SsdConfig`] gathers every parameter the evaluation sweeps:
//! geometry (channels, dies, page size — Fig 18d/e/f), flash timing
//! (read latency for §VII-E, channel bandwidth for Fig 18b), embedded
//! core count (Fig 18c), and the DRAM/PCIe links whose bandwidths bound
//! BG-2 scaling (§VIII). [`FirmwareCosts`] and [`HostCosts`] price the
//! control-path work that distinguishes the platforms.

use beacon_flash::{FlashGeometry, FlashTiming};
use simkit::Duration;

/// Per-work-item firmware processing costs, derived from cycle counts at
/// the embedded cores' clock.
///
/// These are the costs that make firmware-scheduled flash I/O the
/// bottleneck of Challenge 3: request-queue management in DRAM,
/// DMA-configured transfers, and polling-based status checks all charge
/// embedded-core time per flash command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirmwareCosts {
    /// Handling one NVMe command at the I/O poller (acquire + complete).
    pub nvme_command: Duration,
    /// One LPA→PPA mapping lookup.
    pub ftl_lookup: Duration,
    /// Issuing one flash command (status poll + channel program).
    pub flash_issue: Duration,
    /// Handling one flash completion (queue bookkeeping).
    pub flash_complete: Duration,
    /// Configuring one DMA transfer descriptor.
    pub dma_config: Duration,
    /// Parsing one sampling result and extracting follow-up commands.
    pub parse_result: Duration,
    /// Fixed cost of a firmware-software sampling pass over one page.
    pub sample_fixed: Duration,
    /// Incremental cost per sampled neighbor in firmware sampling.
    pub sample_per_neighbor: Duration,
}

impl FirmwareCosts {
    /// Costs at a given embedded-core clock.
    ///
    /// Cycle budgets assume the lean, batched fast path of modern SSD
    /// firmware (queue entries processed in groups per poll cycle, so
    /// the *amortized* per-command cost is ~10² cycles); the NVMe path
    /// is the conventional per-request handler. These budgets are the
    /// calibration point that reproduces the paper's firmware-vs-
    /// hardware-router gap (§VII-B: BG-2 is 41% over BG-DGSP at 4
    /// cores and the gap narrows as cores are added).
    pub fn at_clock(hz: u64) -> Self {
        let cy = |c: u64| Duration::from_cycles(c, hz);
        FirmwareCosts {
            nvme_command: cy(2_000),
            ftl_lookup: cy(100),
            flash_issue: cy(100),
            flash_complete: cy(60),
            dma_config: cy(60),
            parse_result: cy(80),
            // Software sampling over a page in DRAM is the expensive
            // part: section parsing, RNG draws, bounds checks — the
            // cost die-level samplers eliminate (paper §VII-B's 5.47x
            // BG-SP step).
            sample_fixed: cy(1_200),
            sample_per_neighbor: cy(100),
        }
    }

    /// Total firmware time to shepherd one sampling command through a
    /// firmware-controlled backend (issue + completion + parse + DMA).
    pub fn per_command_overhead(&self) -> Duration {
        self.flash_issue + self.flash_complete + self.parse_result + self.dma_config
    }
}

/// Host-side costs for platforms that keep the host in the control path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCosts {
    /// One NVMe submission/completion round trip (driver + doorbell +
    /// interrupt), excluding data transfer.
    pub nvme_roundtrip: Duration,
    /// Host-side metadata translation per node (node index → file
    /// section → LPA), the per-hop barrier work of Challenge 1.
    pub translate_per_node: Duration,
    /// Host software sampling cost per sampled neighbor (CPU-centric
    /// baseline).
    pub sample_per_neighbor: Duration,
    /// Storage-stack software overhead per I/O request (filesystem +
    /// block layer).
    pub storage_stack_per_io: Duration,
    /// Host CPU cores available to the data-preparation path.
    pub cores: usize,
}

impl HostCosts {
    /// Defaults for a contemporary Linux host with a tuned NVMe stack.
    pub fn default_host() -> Self {
        HostCosts {
            nvme_roundtrip: Duration::from_us(10),
            translate_per_node: Duration::from_ns(300),
            sample_per_neighbor: Duration::from_ns(120),
            storage_stack_per_io: Duration::from_us(2),
            cores: 8,
        }
    }
}

/// The complete simulated-device configuration.
///
/// # Examples
///
/// ```
/// use beacon_ssd::SsdConfig;
/// let cfg = SsdConfig::paper_default();
/// assert_eq!(cfg.geometry.channels, 16);
/// assert_eq!(cfg.geometry.total_dies(), 128);
/// assert_eq!(cfg.cores, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// Flash backend organization.
    pub geometry: FlashGeometry,
    /// Flash timing (ULL by default).
    pub timing: FlashTiming,
    /// Embedded processor cores running the firmware.
    pub cores: usize,
    /// Embedded core clock in Hz.
    pub core_hz: u64,
    /// Firmware work-item costs.
    pub firmware: FirmwareCosts,
    /// Host control-path costs.
    pub host: HostCosts,
    /// Internal DRAM bandwidth in bytes/second (the §VIII bottleneck).
    pub dram_bandwidth: u64,
    /// PCIe link bandwidth in bytes/second (Gen4 ×4 per §VII-B).
    pub pcie_bandwidth: u64,
    /// Hardware router latency per command hop (BG-2's parse + crossbar
    /// forward), replacing firmware costs on the sampling path.
    pub router_latency: Duration,
    /// §VIII mitigation: direct I/O between flash and accelerator SRAM,
    /// bypassing the DRAM staging of retrieved feature vectors.
    pub dram_bypass: bool,
}

impl SsdConfig {
    /// The paper's Table II-style default platform: 16 channels × 8 ULL
    /// dies, 800 MB/s channels, 4 cores at 1 GHz, 12.8 GB/s DRAM, PCIe
    /// Gen4 ×4 (~8 GB/s).
    pub fn paper_default() -> Self {
        let core_hz = 1_000_000_000;
        SsdConfig {
            geometry: FlashGeometry::paper_default(),
            timing: FlashTiming::ull(),
            cores: 4,
            core_hz,
            firmware: FirmwareCosts::at_clock(core_hz),
            host: HostCosts::default_host(),
            dram_bandwidth: 12_800_000_000,
            pcie_bandwidth: 8_000_000_000,
            router_latency: Duration::from_ns(100),
            dram_bypass: false,
        }
    }

    /// The §VII-E traditional-SSD variant (20 µs reads).
    pub fn traditional() -> Self {
        SsdConfig {
            timing: FlashTiming::traditional(),
            ..Self::paper_default()
        }
    }

    /// Returns the config with a different channel count (Fig 18d; dies
    /// per channel held constant).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.geometry.channels = channels;
        self
    }

    /// Returns the config with a different dies-per-channel count
    /// (Fig 18e).
    pub fn with_dies_per_channel(mut self, dies: usize) -> Self {
        self.geometry.dies_per_channel = dies;
        self
    }

    /// Returns the config with a different page size (Fig 18f).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.geometry.page_size = page_size;
        self
    }

    /// Returns the config with a different channel bandwidth (Fig 18b).
    pub fn with_channel_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.timing.channel_bandwidth = bytes_per_sec;
        self
    }

    /// Returns the config with a different core count (Fig 18c).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Returns the config with flash→accelerator-SRAM direct I/O
    /// enabled (§VIII's DRAM-bottleneck mitigation).
    pub fn with_dram_bypass(mut self, bypass: bool) -> Self {
        self.dram_bypass = bypass;
        self
    }

    /// Returns the config with HBM-class internal memory (§VIII's other
    /// mitigation: raise the memory bandwidth).
    pub fn with_hbm(mut self) -> Self {
        self.dram_bandwidth = 100_000_000_000;
        self
    }

    /// Aggregate channel bandwidth across the backend.
    pub fn total_channel_bandwidth(&self) -> u64 {
        self.timing.channel_bandwidth * self.geometry.channels as u64
    }
}

/// The inter-device fabric of a §VIII storage array: the link each SSD
/// uses to reach its peers (PCIe peer-to-peer through the switch, or an
/// NVMe-oF hop through a NIC).
///
/// `hop_latency` is the minimum end-to-end cost of any cross-device
/// message and therefore doubles as the conservative-lookahead window
/// of the array simulation (see `beacon_platforms::ArrayEngine`): no
/// device can affect another sooner than one hop, so device lanes may
/// advance a full hop without synchronizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Per-device egress bandwidth onto the fabric, bytes/second.
    pub bandwidth: u64,
    /// Fixed one-way latency per cross-device hop (switch traversal or
    /// NIC + network round).
    pub hop_latency: Duration,
}

impl FabricConfig {
    /// PCIe Gen4 peer-to-peer through a switch: ~4 GB/s effective per
    /// device (§VIII assumes the P2P path sees about half the host
    /// link), 600 ns switch traversal.
    pub fn pcie_p2p() -> Self {
        FabricConfig {
            bandwidth: 4_000_000_000,
            hop_latency: Duration::from_ns(600),
        }
    }

    /// NVMe-over-Fabrics (RDMA): 100 GbE-class links (~10 GB/s usable)
    /// but microsecond-scale hop latency through the NIC.
    pub fn nvme_of() -> Self {
        FabricConfig {
            bandwidth: 10_000_000_000,
            hop_latency: Duration::from_us(5),
        }
    }

    /// Returns the fabric with a different per-device bandwidth.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth = bytes_per_sec;
        self
    }

    /// Returns the fabric with a different hop latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero — the hop latency is the array
    /// engine's lookahead window, which must be positive.
    pub fn with_hop_latency(mut self, latency: Duration) -> Self {
        assert!(!latency.is_zero(), "fabric hop latency must be positive");
        self.hop_latency = latency;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_text() {
        let c = SsdConfig::paper_default();
        assert_eq!(c.geometry.channels, 16);
        assert_eq!(c.geometry.dies_per_channel, 8);
        assert_eq!(c.timing.read_latency, Duration::from_us(3));
        assert_eq!(c.timing.channel_bandwidth, 800_000_000);
        // 16 x 800 MB/s = 12.8 GB/s — exactly the DRAM bandwidth, which
        // is why §VIII calls DRAM the next bottleneck at 16 channels.
        assert_eq!(c.total_channel_bandwidth(), c.dram_bandwidth);
    }

    #[test]
    fn traditional_variant() {
        let c = SsdConfig::traditional();
        assert_eq!(c.timing.read_latency, Duration::from_us(20));
        assert_eq!(c.geometry.channels, 16);
    }

    #[test]
    fn sweep_builders() {
        let c = SsdConfig::paper_default()
            .with_channels(8)
            .with_dies_per_channel(16)
            .with_page_size(8192)
            .with_channel_bandwidth(2_400_000_000)
            .with_cores(8);
        assert_eq!(c.geometry.channels, 8);
        assert_eq!(c.geometry.dies_per_channel, 16);
        assert_eq!(c.geometry.page_size, 8192);
        assert_eq!(c.timing.channel_bandwidth, 2_400_000_000);
        assert_eq!(c.cores, 8);
    }

    #[test]
    fn firmware_costs_scale_with_clock() {
        let slow = FirmwareCosts::at_clock(500_000_000);
        let fast = FirmwareCosts::at_clock(1_000_000_000);
        assert_eq!(slow.flash_issue.as_ns(), 2 * fast.flash_issue.as_ns());
        assert!(slow.per_command_overhead() > fast.per_command_overhead());
    }

    #[test]
    fn fabric_presets_and_builders() {
        let p2p = FabricConfig::pcie_p2p();
        assert_eq!(p2p.bandwidth, 4_000_000_000);
        assert_eq!(p2p.hop_latency, Duration::from_ns(600));
        let nof = FabricConfig::nvme_of();
        assert!(nof.hop_latency > p2p.hop_latency);
        let thin = p2p
            .with_bandwidth(2_000_000)
            .with_hop_latency(Duration::from_us(1));
        assert_eq!(thin.bandwidth, 2_000_000);
        assert_eq!(thin.hop_latency, Duration::from_us(1));
    }

    #[test]
    #[should_panic(expected = "hop latency must be positive")]
    fn zero_hop_latency_rejected() {
        FabricConfig::pcie_p2p().with_hop_latency(Duration::ZERO);
    }

    #[test]
    fn per_command_overhead_sums_components() {
        let f = FirmwareCosts::at_clock(1_000_000_000);
        assert_eq!(
            f.per_command_overhead(),
            f.flash_issue + f.flash_complete + f.parse_result + f.dma_config
        );
    }
}
