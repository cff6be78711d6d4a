"""Tofino resource envelopes.

Numbers are representative of Tofino 1 at the granularity the paper
reasons about: match-action stages per pipeline, SRAM/TCAM blocks per
stage, and the PHV (packet header vector) bit budget shared by a
pipeline's parser and MAU stages.  Exact vendor numbers are NDA'd; what
matters for the reproduction is the *ratios* Tab. 1 reports and the
hard-stop failure modes (PHV overflow, SRAM exhaustion, stage overflow).
"""


class PipelineSpec:
    """Resource envelope of one Tofino pipeline."""

    def __init__(
        self,
        stages=12,
        sram_blocks_per_stage=80,
        sram_block_kib=16,
        tcam_blocks_per_stage=24,
        tcam_block_entries=512,
        tcam_entry_bits=44,
        phv_bits=4096,
    ):
        self.stages = stages
        self.sram_blocks_per_stage = sram_blocks_per_stage
        self.sram_block_kib = sram_block_kib
        self.tcam_blocks_per_stage = tcam_blocks_per_stage
        self.tcam_block_entries = tcam_block_entries
        self.tcam_entry_bits = tcam_entry_bits
        self.phv_bits = phv_bits

    @property
    def total_sram_blocks(self):
        return self.stages * self.sram_blocks_per_stage

    @property
    def total_tcam_blocks(self):
        return self.stages * self.tcam_blocks_per_stage

    def folded(self):
        """Pipeline folding (§2.1): two physical pipelines fused into one
        logical pipeline with twice the stages and per-stage memory pool.

        Sailfish folds pipes 0+2 and 1+3 to fit its long table chains.
        """
        return PipelineSpec(
            stages=self.stages * 2,
            sram_blocks_per_stage=self.sram_blocks_per_stage,
            sram_block_kib=self.sram_block_kib,
            tcam_blocks_per_stage=self.tcam_blocks_per_stage,
            tcam_block_entries=self.tcam_block_entries,
            tcam_entry_bits=self.tcam_entry_bits,
            phv_bits=self.phv_bits,
        )
