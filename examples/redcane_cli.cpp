// redcane_cli — command-line driver for the library.
//
//   redcane_cli analyze --model capsnet --dataset mnist [--epochs 8]
//                       [--train 800] [--test 250] [--tolerance 1.0]
//                       [--json out.json] [--csv prefix]
//   redcane_cli profile [--chain 9] [--samples 30000]
//   redcane_cli energy  --model deepcaps|capsnet [--profile paper|tiny]
//
// `analyze` trains the requested model on the synthetic dataset, runs the
// 6-step methodology, prints the report and optionally exports JSON/CSV.
// `profile` dumps the component library's NM/NA table as CSV.
// `energy` prints op counts and the Fig. 4-style breakdown.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/trainer.hpp"
#include "cli_common.hpp"
#include "core/export.hpp"
#include "core/methodology.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"
#include "energy/op_counter.hpp"

using namespace redcane;
using examples::Args;

namespace {

int cmd_analyze(const Args& args) {
  const std::string model_name = args.get("--model", "capsnet");
  const std::string dataset_name = args.get("--dataset", "mnist");
  const auto epochs = static_cast<int>(args.get_int("--epochs", 8, 0, examples::kIntMax));
  const auto train_n = args.get_int("--train", 800, 1, examples::kIntMax);
  const auto test_n = args.get_int("--test", 250, 1, examples::kIntMax);

  const data::DatasetKind kind = examples::dataset_kind_of(dataset_name);
  const bool deepcaps = model_name == "deepcaps";
  const std::int64_t hw = deepcaps ? 16 : 28;
  const data::Dataset ds = examples::load_cli_dataset(args, kind, hw, train_n, test_n);

  Rng rng(args.get_uint64("--seed", 7));
  std::unique_ptr<capsnet::CapsModel> model;
  if (deepcaps) {
    capsnet::DeepCapsConfig cfg = capsnet::DeepCapsConfig::tiny();
    cfg.input_channels = ds.train_x.shape().dim(3);
    model = std::make_unique<capsnet::DeepCapsModel>(cfg, rng);
  } else {
    model = std::make_unique<capsnet::CapsNetModel>(capsnet::CapsNetConfig::tiny(), rng);
  }

  std::printf("training %s on %s (%d epochs)...\n", model->name().c_str(),
              ds.name.c_str(), epochs);
  capsnet::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 25;
  tc.lr = 3e-3;
  tc.on_epoch = [](int e, double loss, double acc) {
    std::printf("  epoch %2d  loss %.4f  train-acc %.3f\n", e, loss, acc);
  };
  capsnet::train(*model, ds.train_x, ds.train_y, tc);

  core::MethodologyConfig mc;
  mc.tolerance_pct = args.get_real("--tolerance", 1.0);
  mc.profile_chain_length = deepcaps ? 9 : 81;  // 3x3 vs 9x9 kernels.
  const core::MethodologyResult result =
      core::run_redcane(*model, ds.test_x, ds.test_y, ds.name, mc);
  std::printf("%s", core::render_report(result).c_str());

  const std::string json_path = args.get("--json", "");
  if (!json_path.empty()) {
    if (!core::write_text_file(json_path, core::result_to_json(result))) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string csv_prefix = args.get("--csv", "");
  if (!csv_prefix.empty()) {
    std::vector<core::ResilienceCurve> all = result.group_curves;
    all.insert(all.end(), result.layer_curves.begin(), result.layer_curves.end());
    const bool ok =
        core::write_text_file(csv_prefix + "_curves.csv", core::curves_to_csv(all)) &&
        core::write_text_file(csv_prefix + "_selections.csv",
                              core::selections_to_csv(result.selections));
    if (!ok) {
      std::fprintf(stderr, "could not write CSVs with prefix %s\n", csv_prefix.c_str());
      return 1;
    }
    std::printf("wrote %s_curves.csv and %s_selections.csv\n", csv_prefix.c_str(),
                csv_prefix.c_str());
  }
  return 0;
}

int cmd_profile(const Args& args) {
  const auto chain = static_cast<int>(args.get_int("--chain", 9, 1, examples::kIntMax));
  const auto samples = args.get_int("--samples", 30000, 1, examples::kIntMax);
  const auto profiled = core::profile_library(approx::InputDistribution::uniform(), chain,
                                              samples, 7);
  std::fputs(core::profiles_to_csv(profiled).c_str(), stdout);
  return 0;
}

int cmd_energy(const Args& args) {
  const std::string model_name = args.get("--model", "deepcaps");
  const std::string profile = args.get("--profile", "paper");
  std::vector<energy::LayerOps> layers;
  if (model_name == "deepcaps") {
    layers = energy::count_deepcaps_layers(profile == "tiny"
                                               ? capsnet::DeepCapsConfig::tiny()
                                               : capsnet::DeepCapsConfig::paper());
  } else {
    layers = energy::count_capsnet_layers(profile == "tiny"
                                              ? capsnet::CapsNetConfig::tiny()
                                              : capsnet::CapsNetConfig::paper());
  }
  const energy::UnitEnergy ue = energy::UnitEnergy::paper_45nm();
  energy::OpCounts total;
  std::printf("%-12s %14s %14s %14s\n", "layer", "mults", "adds", "energy [nJ]");
  for (const energy::LayerOps& l : layers) {
    std::printf("%-12s %14llu %14llu %14.2f\n", l.layer.c_str(),
                static_cast<unsigned long long>(l.ops.mul),
                static_cast<unsigned long long>(l.ops.add), l.ops.energy_pj(ue) / 1e3);
    total += l.ops;
  }
  std::printf("%-12s %14llu %14llu %14.2f\n", "TOTAL",
              static_cast<unsigned long long>(total.mul),
              static_cast<unsigned long long>(total.add), total.energy_pj(ue) / 1e3);
  std::printf("\nenergy shares: mult %.1f%%, add %.1f%%\n",
              total.energy_share(energy::OpType::kMul, ue) * 100.0,
              total.energy_share(energy::OpType::kAdd, ue) * 100.0);
  return 0;
}

void usage() {
  std::puts(
      "usage: redcane_cli <analyze|profile|energy> [flags]\n"
      "  analyze --model capsnet|deepcaps --dataset mnist|fashion|cifar10|svhn\n"
      "          [--epochs N] [--train N] [--test N] [--tolerance PP]\n"
      "          [--json FILE] [--csv PREFIX] [--seed N] [--data-dir DIR]\n"
      "  profile [--chain N] [--samples N]          (CSV to stdout)\n"
      "  energy  --model deepcaps|capsnet [--profile paper|tiny]");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const Args args(argc, argv);
  const std::string cmd = argv[1];
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "energy") return cmd_energy(args);
  usage();
  return 2;
}
