#include "cli.h"

#include <charconv>
#include <string_view>

namespace qa::bench {

namespace {

template <typename T>
util::Status ParseNumber(std::string_view flag, std::string_view text, T min,
                         T max, T* out) {
  T value{};
  auto [end, error] = std::from_chars(text.data(), text.data() + text.size(),
                                      value);
  if (text.empty() || error != std::errc() ||
      end != text.data() + text.size() || value < min || value > max) {
    return util::Status::InvalidArgument(
        "--" + std::string(flag) + ": '" + std::string(text) +
        "' is not a whole number in [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  *out = value;
  return util::Status::OK();
}

}  // namespace

util::StatusOr<Options> ParseOptions(const std::vector<std::string>& args) {
  Options options;
  for (size_t i = 0; i < args.size(); ++i) {
    std::string_view arg = args[i];
    if (arg.substr(0, 2) != "--") {
      return util::Status::InvalidArgument("unexpected argument '" +
                                           std::string(arg) + "'");
    }
    std::string_view flag = arg.substr(2);
    std::string_view value;
    bool has_value = false;
    if (size_t eq = flag.find('='); eq != std::string_view::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    if (flag == "traced" || flag == "smoke") {
      if (has_value) {
        return util::Status::InvalidArgument("--" + std::string(flag) +
                                             " takes no value");
      }
      (flag == "traced" ? options.traced : options.smoke) = true;
      continue;
    }
    if (flag != "workload" && flag != "seed" && flag != "seconds" &&
        flag != "trace") {
      return util::Status::InvalidArgument("unknown flag '" +
                                           std::string(arg) + "'");
    }
    if (!has_value) {
      if (i + 1 == args.size()) {
        return util::Status::InvalidArgument("--" + std::string(flag) +
                                             " needs a value");
      }
      value = args[++i];
    }
    util::Status status;
    if (flag == "workload") {
      options.workload = std::string(value);
    } else if (flag == "seed") {
      status = ParseNumber<uint64_t>(flag, value, 0, UINT64_MAX, &options.seed);
    } else if (flag == "seconds") {
      status = ParseNumber<int>(flag, value, 1, 600, &options.seconds);
    } else {
      int trace = 0;
      status = ParseNumber<int>(flag, value, 0, 1, &trace);
      options.traced = trace == 1;
    }
    if (!status.ok()) return status;
  }
  if (options.workload.empty()) {
    return util::Status::InvalidArgument("--workload is required");
  }
  return options;
}

}  // namespace qa::bench
