//! Behaviour contract: [`SimResult::fingerprint`] pinned over a grid of
//! configurations, so any change that moves a result field — down to one
//! ulp of a float — fails here, whichever path the run takes.
//!
//! The grid covers every prefetcher kind over every Table 2 app open loop,
//! plus the figure set over two apps with a warmup fraction and closed
//! loop. No libm call feeds a [`SimResult`], so the values do not depend on
//! the host.
//!
//! After a *deliberate* behaviour change, run
//! `cargo test -p planaria-sim --test fingerprints` and replace `EXPECTED`
//! with the table the failing test prints.
//!
//! [`SimResult::fingerprint`]: planaria_sim::SimResult::fingerprint
//! [`SimResult`]: planaria_sim::SimResult

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::TrafficConfig;
use planaria_trace::apps::AppId;

/// Accesses per cell: long enough for every prefetcher to issue, short
/// enough for a debug build.
const LEN: usize = 4_000;

const ALL_KINDS: [PrefetcherKind; 12] = [
    PrefetcherKind::None,
    PrefetcherKind::NextLine,
    PrefetcherKind::Stride,
    PrefetcherKind::Bop,
    PrefetcherKind::Spp,
    PrefetcherKind::SlpOnly,
    PrefetcherKind::TlpOnly,
    PrefetcherKind::Planaria,
    PrefetcherKind::PlanariaSlpIssue,
    PrefetcherKind::PlanariaTlpIssue,
    PrefetcherKind::PlanariaParallel,
    PrefetcherKind::PlanariaLean,
];

/// The grid, each job labelled `"<mode> <app>/<kind>"`.
fn jobs() -> Vec<Job> {
    let labelled = |mode: &str, mut job: Job| {
        job.label = format!("{mode} {}", job.label);
        job
    };
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        for kind in ALL_KINDS {
            jobs.push(labelled("open", Job::grid_cell(app, kind, LEN)));
        }
    }
    for app in [AppId::HoK, AppId::Fort] {
        for kind in PrefetcherKind::FIGURE_SET {
            jobs.push(labelled("warmup", Job::grid_cell(app, kind, LEN).warmup(0.25)));
        }
    }
    for app in [AppId::HoK, AppId::Fort] {
        for kind in PrefetcherKind::FIGURE_SET {
            let job = Job::grid_cell(app, kind, LEN).traffic(TrafficConfig::new(4));
            jobs.push(labelled("closed", job));
        }
    }
    jobs
}

#[test]
fn fingerprints_match_the_pinned_table() {
    let report = Runner::auto().run(jobs());
    let actual: Vec<(String, u64)> =
        report.cells.iter().map(|c| (c.label.clone(), c.result.fingerprint())).collect();
    let expected: Vec<(String, u64)> =
        EXPECTED.iter().map(|&(label, fp)| (label.to_string(), fp)).collect();
    if actual != expected {
        let mut table = String::from("const EXPECTED: &[(&str, u64)] = &[\n");
        for (label, fp) in &actual {
            let mark = if expected.contains(&(label.clone(), *fp)) { "" } else { " // changed" };
            table.push_str(&format!("    ({label:?}, {fp:#018x}),{mark}\n"));
        }
        table.push_str("];\n");
        panic!("fingerprints moved; the observed table is:\n{table}");
    }
}

const EXPECTED: &[(&str, u64)] = &[
    ("open CFM/None", 0xa56f3a3a2dea1873),
    ("open CFM/NextLine", 0xde9d1ed796f7a9d7),
    ("open CFM/Stride", 0x74e2dcd354ad967e),
    ("open CFM/BOP", 0xac0b014c58ca9803),
    ("open CFM/SPP", 0xe051624f074fba42),
    ("open CFM/SLP", 0x419367ee96da437e),
    ("open CFM/TLP", 0x879faab5125c707a),
    ("open CFM/Planaria", 0xe4fb3a1617afe7e8),
    ("open CFM/Planaria(SLP)", 0xb06db053f54ce5d1),
    ("open CFM/Planaria(TLP)", 0x3d39fd1298580cc6),
    ("open CFM/Planaria(parallel)", 0x6f579cb55c32adc3),
    ("open CFM/Planaria(lean)", 0x64ce2d4eea596855),
    ("open HoK/None", 0x2fa2bee70041a769),
    ("open HoK/NextLine", 0xba1abff2e397100b),
    ("open HoK/Stride", 0x220955dc238dc35f),
    ("open HoK/BOP", 0xe27b96458b1f945f),
    ("open HoK/SPP", 0x9df669832e03daca),
    ("open HoK/SLP", 0x35e7d209886f47f6),
    ("open HoK/TLP", 0x56b56aecd9f293da),
    ("open HoK/Planaria", 0x6769cbe48befa5b9),
    ("open HoK/Planaria(SLP)", 0x2dbfcf1c2e90ff55),
    ("open HoK/Planaria(TLP)", 0xb6eb8c39952f567f),
    ("open HoK/Planaria(parallel)", 0x696c27ed917ceacc),
    ("open HoK/Planaria(lean)", 0xb2e62032fdd790d9),
    ("open Id-V/None", 0x25f592771d0d53b9),
    ("open Id-V/NextLine", 0xa8ac4c3b71dd92e1),
    ("open Id-V/Stride", 0x9eee1cf23bc93a9f),
    ("open Id-V/BOP", 0x7b5889720ef8a4d7),
    ("open Id-V/SPP", 0xcbf83d6f6652d170),
    ("open Id-V/SLP", 0x47a1c1f8940eb027),
    ("open Id-V/TLP", 0xeca9310fd2777177),
    ("open Id-V/Planaria", 0x37ec1a1226bff88b),
    ("open Id-V/Planaria(SLP)", 0xc75c8c16a3c05a0f),
    ("open Id-V/Planaria(TLP)", 0xc68e94dfe5b70b0d),
    ("open Id-V/Planaria(parallel)", 0x52adc8ad2bc02082),
    ("open Id-V/Planaria(lean)", 0xaba72a42bad288d2),
    ("open QSM/None", 0xd457a8d22eeee484),
    ("open QSM/NextLine", 0xbda7d120e015e81a),
    ("open QSM/Stride", 0x8f70acb2c5f74af0),
    ("open QSM/BOP", 0x9b90111b56f7bd80),
    ("open QSM/SPP", 0x37d4ab78cebac176),
    ("open QSM/SLP", 0xdcefe1f6a93d8f8f),
    ("open QSM/TLP", 0xd08e813f16c73869),
    ("open QSM/Planaria", 0xd13ba4ad82bed51d),
    ("open QSM/Planaria(SLP)", 0x6a1f53006fd3a59e),
    ("open QSM/Planaria(TLP)", 0x23663fb840c1e103),
    ("open QSM/Planaria(parallel)", 0xf34036148905d9e8),
    ("open QSM/Planaria(lean)", 0x9fcb652b3a1faea2),
    ("open TikT/None", 0x00d34b1fec0807f2),
    ("open TikT/NextLine", 0x54af17d78c6c7929),
    ("open TikT/Stride", 0x0047f1a402d41367),
    ("open TikT/BOP", 0x7615b66e6ca52413),
    ("open TikT/SPP", 0x68439e5484fdd80f),
    ("open TikT/SLP", 0x5c0a1e55ec1ca706),
    ("open TikT/TLP", 0x50f8fd93ad171b09),
    ("open TikT/Planaria", 0x1385bbaba6ec416c),
    ("open TikT/Planaria(SLP)", 0xefc4a4a6fae15797),
    ("open TikT/Planaria(TLP)", 0x33db88f0f755b666),
    ("open TikT/Planaria(parallel)", 0x12e58c3c6705a335),
    ("open TikT/Planaria(lean)", 0x9088d64a5badcfcf),
    ("open Fort/None", 0x8aa28e22df5e1eb9),
    ("open Fort/NextLine", 0xae1080bf59cb58e3),
    ("open Fort/Stride", 0xc12089efe25cd64a),
    ("open Fort/BOP", 0x2edf4fa7d2143ffb),
    ("open Fort/SPP", 0xba1323efc0453409),
    ("open Fort/SLP", 0xc55c4cfc30869c00),
    ("open Fort/TLP", 0x307f94c57bd21b6f),
    ("open Fort/Planaria", 0x05d3dd010070f875),
    ("open Fort/Planaria(SLP)", 0xc5daa5658b9c7113),
    ("open Fort/Planaria(TLP)", 0xe73418ac0a4a41e3),
    ("open Fort/Planaria(parallel)", 0xdae53466ff9c8c6b),
    ("open Fort/Planaria(lean)", 0xa150f0a53e13e47b),
    ("open HI3/None", 0xecf29a1ebef0f719),
    ("open HI3/NextLine", 0x86f1b4d11703153d),
    ("open HI3/Stride", 0x7ae3d1bd131d1d9f),
    ("open HI3/BOP", 0xc36640311f239dc1),
    ("open HI3/SPP", 0x46333d6ac2f0bf40),
    ("open HI3/SLP", 0x30d59a1ea40654b5),
    ("open HI3/TLP", 0x17973a0c8c581959),
    ("open HI3/Planaria", 0x96a1f9ca228ddd86),
    ("open HI3/Planaria(SLP)", 0x402ac3e1286f3092),
    ("open HI3/Planaria(TLP)", 0x5b73ce8f1ffb6968),
    ("open HI3/Planaria(parallel)", 0xafe491aadace59f6),
    ("open HI3/Planaria(lean)", 0x84c81c3ff38d7ee3),
    ("open KO/None", 0x3504a729045661bd),
    ("open KO/NextLine", 0xedf3b442c8878582),
    ("open KO/Stride", 0xf86392c77d2edbdc),
    ("open KO/BOP", 0x261d2bd503007f04),
    ("open KO/SPP", 0xf8adf156e8fbe15e),
    ("open KO/SLP", 0x701403e386edd1c2),
    ("open KO/TLP", 0x9abbfce4015bfe34),
    ("open KO/Planaria", 0x070965f343c6cf28),
    ("open KO/Planaria(SLP)", 0x7b77232ddae044d3),
    ("open KO/Planaria(TLP)", 0x8f92cd10073bb5b6),
    ("open KO/Planaria(parallel)", 0x3de533c0f68a8cf8),
    ("open KO/Planaria(lean)", 0x7a64a2501dcf8654),
    ("open NBA2/None", 0x9492f190414b062a),
    ("open NBA2/NextLine", 0x3df413a65255e189),
    ("open NBA2/Stride", 0x93106bc1447cb89e),
    ("open NBA2/BOP", 0x1ea51129b475ebb5),
    ("open NBA2/SPP", 0x1ee7785dd17e332f),
    ("open NBA2/SLP", 0xbee14db906bd8ca6),
    ("open NBA2/TLP", 0x702d625dda09105d),
    ("open NBA2/Planaria", 0xdd251e86e2be1f07),
    ("open NBA2/Planaria(SLP)", 0xca64f069cd6bffcd),
    ("open NBA2/Planaria(TLP)", 0x1ace9c23f31b4509),
    ("open NBA2/Planaria(parallel)", 0x49d3b9d014502463),
    ("open NBA2/Planaria(lean)", 0x877979e890211e5b),
    ("open PM/None", 0x9555b2e3728fdb57),
    ("open PM/NextLine", 0x7b6281a54d0b8d2e),
    ("open PM/Stride", 0x658ec7ff0672c8d8),
    ("open PM/BOP", 0x12a042c3deabf2e6),
    ("open PM/SPP", 0x8d635ea41ecca36f),
    ("open PM/SLP", 0xd5b276d91b99f1da),
    ("open PM/TLP", 0x9a7991ccf0d81ffb),
    ("open PM/Planaria", 0x06a453134474e55f),
    ("open PM/Planaria(SLP)", 0xf69e76789df31ddd),
    ("open PM/Planaria(TLP)", 0xac675004d3a04105),
    ("open PM/Planaria(parallel)", 0xc9331300fc816854),
    ("open PM/Planaria(lean)", 0x7b527b6f749ee38c),
    ("warmup HoK/None", 0x66c46022e7c20dbb),
    ("warmup HoK/BOP", 0x26a70f07a1830b82),
    ("warmup HoK/SPP", 0x83a25e8083a4e287),
    ("warmup HoK/Planaria", 0x84c3ea8ebc9b9fde),
    ("warmup Fort/None", 0xed2b9a5de4dd7392),
    ("warmup Fort/BOP", 0x2ae756bbe226a8d3),
    ("warmup Fort/SPP", 0x78e5ce03e539b412),
    ("warmup Fort/Planaria", 0x73ab53a664aaa0f0),
    ("closed HoK/None", 0x8d7ec0552a870f04),
    ("closed HoK/BOP", 0xadd2907e33ff8b80),
    ("closed HoK/SPP", 0x4def8c7ff4e975fb),
    ("closed HoK/Planaria", 0x5d2bacf0c001ac6e),
    ("closed Fort/None", 0x2c8d0f992f5bd445),
    ("closed Fort/BOP", 0x778172811e42e3f7),
    ("closed Fort/SPP", 0xce3434a3cdd5d432),
    ("closed Fort/Planaria", 0x62a15d56261d1eb4),
];
