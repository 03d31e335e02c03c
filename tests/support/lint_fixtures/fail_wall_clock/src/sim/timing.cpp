#include <chrono>
namespace gridcast::sim {
long long stamp() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}
long long tick() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
}  // namespace gridcast::sim
